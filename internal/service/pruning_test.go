package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"heterog/internal/cli"
)

// TestStressBoundedRuns is the -race exhibit for the cold-path pruning
// stack: concurrent jobs, every one planning with pruning armed, race the
// incumbent bound and the shared pipeline counters through the worker pool.
// Afterwards /v1/stats must report their pruning activity.
func TestStressBoundedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("plans real models")
	}
	srv, c := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()

	specs := []cli.Spec{
		{Model: "vgg19", Batch: 64, GPUs: 4, Seed: 1, Episodes: 2},
		{Model: "vgg19", Batch: 64, GPUs: 4, Seed: 2, Episodes: 2},
		{Model: "resnet50", Batch: 64, GPUs: 4, Seed: 1, Episodes: 2},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(specs))
	for rep := 0; rep < 2; rep++ {
		for _, sp := range specs {
			wg.Add(1)
			go func(sp cli.Spec) {
				defer wg.Done()
				st, err := c.Submit(ctx, sp)
				if err != nil {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
				final, err := c.Wait(ctx, st.ID, 30*time.Second)
				if err != nil {
					errs <- fmt.Errorf("wait %s: %w", st.ID, err)
					return
				}
				if final.State != JobDone {
					errs <- fmt.Errorf("job %s ended %s (%s)", st.ID, final.State, final.Error)
				}
			}(sp)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	st := srv.Stats()
	if st.Done != 6 {
		t.Fatalf("done = %d, want 6", st.Done)
	}
	if st.Pruning.BoundsTried == 0 {
		t.Fatalf("stats report no bound attempts after bounded jobs: %+v", st.Pruning)
	}
	certified := st.Pruning.PrunedPreLower + st.Pruning.PrunedPostLower + st.Pruning.SimsAborted
	if certified == 0 {
		t.Errorf("stats report no certified losers: %+v", st.Pruning)
	}
}
