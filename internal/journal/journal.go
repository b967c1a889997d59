// Package journal is sstad's durability layer: an append-only on-disk
// job journal that the server writes through on every job lifecycle
// transition, and replays on startup to recover work a crash or
// redeploy interrupted.
//
// # Format
//
// One record per line:
//
//	crc32c-hex SP json NL
//
// where the 8-hex-digit prefix is the Castagnoli CRC of the JSON
// payload. Appends are fsynced by default, so an acknowledged submit
// survives power loss. Replay is tolerant of a torn final write — a
// trailing line whose CRC, JSON or newline is damaged is discarded and
// the file truncated back to the last intact record — but corruption
// in the middle of the file (intact records following a damaged one)
// is reported as an error rather than silently skipped, because it
// means the storage, not a crash, lost data.
//
// # Replay semantics
//
// Records fold per job (see Replay): a job with no terminal record was
// queued or running when the process died and should be re-enqueued;
// its start-record count bounds how many times recovery may retry it;
// its latest checkpoint record, if any, seeds the optimizer resume.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Type tags a record with the lifecycle transition it logs.
type Type string

const (
	// TypeSubmit records a job's admission: ID, operation, design hash,
	// idempotency key and the full wire request (so the job can be
	// rebuilt from the journal alone).
	TypeSubmit Type = "submit"
	// TypeStart records one execution attempt beginning.
	TypeStart Type = "start"
	// TypeCheckpoint records a resumable optimizer state snapshot.
	TypeCheckpoint Type = "checkpoint"
	// TypeDone / TypeFailed / TypeCancelled are the terminal records.
	TypeDone      Type = "done"
	TypeFailed    Type = "failed"
	TypeCancelled Type = "cancelled"
)

// Record is one journal line. Only the fields relevant to the type are
// populated.
type Record struct {
	Seq  uint64    `json:"seq"`
	Type Type      `json:"type"`
	Job  string    `json:"job"`
	Time time.Time `json:"time"`

	// Submit fields.
	Op      string          `json:"op,omitempty"`
	Hash    string          `json:"hash,omitempty"`
	IdemKey string          `json:"idem_key,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`

	// Start fields: the 1-based execution attempt.
	Attempt int `json:"attempt,omitempty"`

	// Done fields.
	Result   json.RawMessage `json:"result,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`

	// Failed/cancelled fields.
	Error string `json:"error,omitempty"`

	// Checkpoint payload (opaque to the journal; the server stores the
	// wire form of the optimizer checkpoint).
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// Options tunes a journal. The zero value is the durable default.
type Options struct {
	// NoSync skips the fsync after each append. Only tests (and hosts
	// that explicitly trade durability for throughput) set it.
	NoSync bool
	// Inject is the chaos hook; nil disables injection. Sites:
	// "journal.append.write", "journal.append.sync".
	Inject *faultinject.Injector
}

// Journal is an open journal file. Appends are serialized and
// (by default) fsynced; safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	seq  uint64
	opts Options
	now  func() time.Time // test seam
}

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// every platform Go targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Open opens (creating if absent) the journal at path, replays and
// validates every intact record, truncates a torn tail, and returns
// the journal ready for appends plus the recovered records in file
// order.
func Open(path string, opts Options) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open: %w", err)
	}
	recs, goodBytes, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Discard the torn tail, if any, so the next append starts on a
	// record boundary.
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(goodBytes, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek: %w", err)
	}
	j := &Journal{f: f, opts: opts, now: time.Now}
	for _, r := range recs {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	return j, recs, nil
}

// scan reads records from the start of f, returning the intact records
// and the byte offset of the end of the last intact one. A damaged
// suffix with no intact record after it is tolerated (torn write), as
// is an unterminated final line — an append is only acknowledged after
// its full line (newline included) is fsynced, so neither can hold an
// acknowledged record. Damage followed by intact records is an error.
func scan(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, 0); err != nil {
		return nil, 0, fmt.Errorf("journal: seek: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: read: %w", err)
	}
	var (
		recs      []Record
		goodBytes int64
		badLine   int // 1-based line number of the first damaged line
	)
	line := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated final line: torn write, drop it.
			break
		}
		line++
		rec, ok := parseLine(string(data[off : off+nl]))
		off += nl + 1
		if !ok {
			if badLine == 0 {
				badLine = line
			}
			continue
		}
		if badLine != 0 {
			return nil, 0, fmt.Errorf(
				"journal: corrupt record at line %d followed by intact records (line %d): refusing to drop committed data",
				badLine, line)
		}
		recs = append(recs, rec)
		goodBytes = int64(off)
	}
	return recs, goodBytes, nil
}

// parseLine validates one "crc json" line.
func parseLine(s string) (Record, bool) {
	crcHex, payload, ok := strings.Cut(s, " ")
	if !ok || len(crcHex) != 8 {
		return Record{}, false
	}
	var want uint32
	if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil {
		return Record{}, false
	}
	if crc32.Checksum([]byte(payload), crcTable) != want {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return Record{}, false
	}
	if rec.Type == "" || rec.Job == "" {
		return Record{}, false
	}
	return rec, true
}

// Append assigns the record a sequence number and timestamp, writes it
// with its CRC, and fsyncs (unless Options.NoSync). On any error the
// journal's durability guarantee is void for this record; callers
// decide whether to reject the triggering operation or degrade.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec.Seq = j.seq
	if rec.Time.IsZero() {
		rec.Time = j.now().UTC()
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.Checksum(payload, crcTable), payload)
	if err := j.opts.Inject.Fire("journal.append.write"); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if _, err := j.f.WriteString(line); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.opts.Inject.Fire("journal.append.sync"); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	return nil
}

// Close closes the underlying file (a final fsync first, so the tail
// is durable even under NoSync).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// JobReplay is the folded per-job view of a journal: everything
// recovery needs to decide a job's fate after a restart.
type JobReplay struct {
	ID string
	// Submit is the job's admission record; nil when the journal only
	// holds later records for the job (possible if a crash interleaved
	// an enqueue with its submit append — such jobs cannot be rebuilt
	// and are surfaced for the caller to count, not to run).
	Submit *Record
	// Attempts counts the start records: how many times an execution
	// began (each of which the crash interrupted, if no terminal record
	// follows).
	Attempts int
	// Terminal is the done/failed/cancelled record, nil for jobs the
	// crash caught queued or running.
	Terminal *Record
	// Checkpoint is the latest checkpoint record, nil if none.
	Checkpoint *Record
}

// Replay folds records into per-job histories, ordered by each job's
// first appearance in the journal (submit order).
func Replay(recs []Record) []*JobReplay {
	byID := make(map[string]*JobReplay)
	var order []*JobReplay
	for i := range recs {
		rec := &recs[i]
		jr := byID[rec.Job]
		if jr == nil {
			jr = &JobReplay{ID: rec.Job}
			byID[rec.Job] = jr
			order = append(order, jr)
		}
		switch rec.Type {
		case TypeSubmit:
			if jr.Submit == nil {
				jr.Submit = rec
			}
		case TypeStart:
			jr.Attempts++
		case TypeCheckpoint:
			jr.Checkpoint = rec
		case TypeDone, TypeFailed, TypeCancelled:
			jr.Terminal = rec
		}
	}
	return order
}
