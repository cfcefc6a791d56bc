package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"heterog/internal/cli"
	"heterog/internal/service"
)

// TestKillAndRestart builds the daemon, runs it in fleet mode on a file
// store, SIGKILLs it mid-batch and restarts it on the same store: every
// accepted job must reach a terminal state, and every job's event log must
// stay dense from seq 1 across both process lifetimes.
func TestKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and plans real models")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "heterog-serve")
	if out, err := exec.Command(goBin, "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ctx := context.Background()

	// spawn starts the daemon on the shared store and waits for readiness.
	spawn := func() (*exec.Cmd, *service.Client) {
		t.Helper()
		addrFile := filepath.Join(dir, "addr")
		_ = os.Remove(addrFile)
		cmd := exec.Command(exe, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-store", filepath.Join(dir, "store"), "-fleet-gpus", "8", "-workers", "1", "-node", "r1")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
			raw, err := os.ReadFile(addrFile)
			if err != nil || len(raw) == 0 {
				continue
			}
			c := service.NewClient("http://" + string(raw))
			rctx, cancel := context.WithTimeout(ctx, time.Second)
			err = c.Readyz(rctx)
			cancel()
			if err == nil {
				return cmd, c
			}
		}
		t.Fatal("daemon not ready within 30s")
		return nil, nil
	}

	cmd, c := spawn()
	const n = 6
	var ids []string
	for i := 0; i < n; i++ {
		st, err := c.Submit(ctx, cli.Spec{Model: "vgg19", Batch: 32 + 16*i, Seed: 1, Episodes: 1, GPUs: 4})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	// Kill mid-batch: at least one job done (its report must survive), at
	// least one not (it must be re-queued).
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Done >= 1 && stats.Done < n {
			break
		}
		if stats.Done >= n || time.Now().After(deadline) {
			t.Fatalf("could not catch the daemon mid-batch (done=%d)", stats.Done)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	_, c = spawn()
	for _, id := range ids {
		st, err := c.Wait(ctx, id, 2*time.Minute)
		if err != nil {
			t.Fatalf("job %s after restart: %v", id, err)
		}
		if !st.State.Terminal() {
			t.Fatalf("job %s not terminal after restart: %s", id, st.State)
		}
		evs, err := c.Events(ctx, id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i)+1 {
				t.Fatalf("job %s event %d has seq %d, want %d (gap-free across the restart)", id, i, ev.Seq, i+1)
			}
		}
	}
	t.Logf("%d/%d jobs terminal after SIGKILL and restart, every event log gap-free", n, n)
}
