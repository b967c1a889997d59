package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func openT(t *testing.T, path string, opts Options) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path, opts)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, recs := openT(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}

	reqBody := json.RawMessage(`{"op":"optimize","generate":"c432"}`)
	appends := []Record{
		{Type: TypeSubmit, Job: "j000001", Op: "optimize", Hash: "abc", IdemKey: "k1", Request: reqBody},
		{Type: TypeStart, Job: "j000001", Attempt: 1},
		{Type: TypeCheckpoint, Job: "j000001", Checkpoint: json.RawMessage(`{"iter":3}`)},
		{Type: TypeSubmit, Job: "j000002", Op: "analyze", Hash: "def"},
		{Type: TypeDone, Job: "j000002", Result: json.RawMessage(`{"mean":1}`), CacheHit: true},
		{Type: TypeFailed, Job: "j000001", Error: "boom"},
	}
	for i, rec := range appends {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	j.Close()

	j2, got := openT(t, path, Options{})
	if len(got) != len(appends) {
		t.Fatalf("replayed %d records, want %d", len(got), len(appends))
	}
	for i, rec := range got {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if rec.Type != appends[i].Type || rec.Job != appends[i].Job {
			t.Fatalf("record %d = %+v, want type %s job %s", i, rec, appends[i].Type, appends[i].Job)
		}
		if rec.Time.IsZero() {
			t.Fatalf("record %d has no timestamp", i)
		}
	}
	if string(got[0].Request) != string(reqBody) || got[0].IdemKey != "k1" {
		t.Fatalf("submit record lost fields: %+v", got[0])
	}
	if !got[4].CacheHit || string(got[4].Result) != `{"mean":1}` {
		t.Fatalf("done record lost fields: %+v", got[4])
	}

	// Sequence numbers continue past the replayed tail.
	if err := j2.Append(Record{Type: TypeSubmit, Job: "j000003", Op: "analyze"}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	j2.Close()
	_, got = openT(t, path, Options{})
	if got[len(got)-1].Seq != uint64(len(appends)+1) {
		t.Fatalf("post-reopen seq = %d, want %d", got[len(got)-1].Seq, len(appends)+1)
	}
}

// appendN writes n submit records and closes the journal, returning
// the file's contents.
func appendN(t *testing.T, path string, n int) []byte {
	t.Helper()
	j, _, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(Record{Type: TypeSubmit, Job: "j000001", Op: "analyze"}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	data := appendN(t, path, 3)

	// Torn cases: progressively truncated final record, including a cut
	// that leaves a parseable line without its newline.
	for cut := 1; cut < 40; cut += 7 {
		torn := filepath.Join(dir, "torn")
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := Open(torn, Options{})
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2", cut, len(recs))
		}
		// The torn bytes must be gone: a fresh append lands intact.
		if err := j.Append(Record{Type: TypeStart, Job: "j000001", Attempt: 1}); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		j.Close()
		_, recs, err = Open(torn, Options{})
		if err != nil || len(recs) != 3 {
			t.Fatalf("cut %d: reopen after repair: %d records, err %v", cut, len(recs), err)
		}
		if recs[2].Type != TypeStart {
			t.Fatalf("cut %d: repaired tail = %+v", cut, recs[2])
		}
	}
}

func TestCorruptTailByteTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	data := appendN(t, path, 2)

	// Flip a byte inside the LAST record's payload: CRC mismatch on the
	// tail only — tolerated.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-5] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("open with corrupt tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
}

func TestCorruptMiddleRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	data := appendN(t, path, 3)

	// Flip a byte in the FIRST record: intact records follow, so this
	// is storage corruption, not a torn write.
	corrupt := append([]byte(nil), data...)
	corrupt[12] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, Options{})
	if err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	if !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestInjectedWriteAndSyncFailures(t *testing.T) {
	in := faultinject.New(1)
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path, Options{Inject: in})

	in.Set("journal.append.write", faultinject.Plan{FailFirst: 1})
	if err := j.Append(Record{Type: TypeSubmit, Job: "j000001"}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("write fault not surfaced: %v", err)
	}
	in.Clear("journal.append.write")

	in.Set("journal.append.sync", faultinject.Plan{FailFirst: 1})
	err := j.Append(Record{Type: TypeSubmit, Job: "j000002"})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("sync fault not surfaced: %v", err)
	}
	in.Clear("journal.append.sync")

	// After the faults clear, the journal still works and replays only
	// fully-acknowledged records (the sync-failed line may or may not
	// be on disk; both are valid — what matters is no crash and intact
	// parsing).
	if err := j.Append(Record{Type: TypeSubmit, Job: "j000003"}); err != nil {
		t.Fatalf("append after faults: %v", err)
	}
	j.Close()
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after faults: %v", err)
	}
	if len(recs) == 0 || recs[len(recs)-1].Job != "j000003" {
		t.Fatalf("replay after faults = %+v", recs)
	}
}

func TestReplayFolding(t *testing.T) {
	recs := []Record{
		{Type: TypeSubmit, Job: "a", Op: "optimize", IdemKey: "k"},
		{Type: TypeSubmit, Job: "b", Op: "analyze"},
		{Type: TypeStart, Job: "a", Attempt: 1},
		{Type: TypeStart, Job: "b", Attempt: 1},
		{Type: TypeCheckpoint, Job: "a", Checkpoint: json.RawMessage(`{"iter":1}`)},
		{Type: TypeDone, Job: "b", Result: json.RawMessage(`{}`)},
		{Type: TypeStart, Job: "a", Attempt: 2},
		{Type: TypeCheckpoint, Job: "a", Checkpoint: json.RawMessage(`{"iter":5}`)},
		{Type: TypeStart, Job: "orphan", Attempt: 1}, // no submit record
	}
	jrs := Replay(recs)
	if len(jrs) != 3 {
		t.Fatalf("folded into %d jobs, want 3", len(jrs))
	}
	a, b, orphan := jrs[0], jrs[1], jrs[2]
	if a.ID != "a" || b.ID != "b" || orphan.ID != "orphan" {
		t.Fatalf("order = %s, %s, %s", a.ID, b.ID, orphan.ID)
	}
	if a.Attempts != 2 || a.Terminal != nil || a.Submit == nil || a.Submit.IdemKey != "k" {
		t.Fatalf("job a folded wrong: %+v", a)
	}
	if string(a.Checkpoint.Checkpoint) != `{"iter":5}` {
		t.Fatalf("job a kept checkpoint %s, want the latest", a.Checkpoint.Checkpoint)
	}
	if b.Terminal == nil || b.Terminal.Type != TypeDone {
		t.Fatalf("job b folded wrong: %+v", b)
	}
	if orphan.Submit != nil || orphan.Attempts != 1 {
		t.Fatalf("orphan folded wrong: %+v", orphan)
	}
}
