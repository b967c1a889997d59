package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
)

// pollCountingCtx is a context whose cancellation becomes visible after a
// fixed number of Err() polls. It makes "the optimizer stops within one
// iteration of cancellation" a deterministic assertion: the optimizer
// polls Err() exactly once per outer iteration, so the total poll count
// at return tells us how many iterations ran after the cancellation
// landed.
type pollCountingCtx struct {
	context.Context
	polls       atomic.Int64
	cancelAfter int64
}

func (c *pollCountingCtx) Err() error {
	if c.polls.Add(1) > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

func (c *pollCountingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func TestStatisticalGreedyStopsWithinOneIterationOfCancel(t *testing.T) {
	c, err := gen.ISCASLike("alu1")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := setup(t, c)
	// The first poll (iteration 0) sees a live context; every later poll
	// sees a cancelled one. A correct optimizer therefore runs exactly
	// one iteration and returns on the second poll.
	ctx := &pollCountingCtx{Context: context.Background(), cancelAfter: 1}
	res, err := StatisticalGreedy(d, vm, Options{Lambda: 3, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a result: %+v", res)
	}
	if got := ctx.polls.Load(); got != 2 {
		t.Fatalf("optimizer polled the context %d times; want 2 (one live iteration, then stop)", got)
	}
}

func TestStatisticalGreedyRejectsCancelledContext(t *testing.T) {
	c, err := gen.ISCASLike("alu1")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := setup(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := d.Circuit.SizeSnapshot()
	if _, err := StatisticalGreedy(d, vm, Options{Lambda: 3, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	after := d.Circuit.SizeSnapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("cancelled-at-entry run still resized gates")
		}
	}
}

func TestMeanDelayGreedyRejectsCancelledContext(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeanDelayGreedy(d, vm, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRecoverAreaRejectsCancelledContext(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RecoverArea(d, vm, Options{Lambda: 3, Ctx: ctx, SlackFrac: 0.01}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
