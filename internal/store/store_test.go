package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openBackends returns one fresh instance of every backend, keyed by Kind.
func openBackends(t *testing.T) map[string]Store {
	t.Helper()
	f, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	m := NewMem()
	t.Cleanup(func() { _ = m.Close() })
	return map[string]Store{m.Kind(): m, f.Kind(): f}
}

func raw(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreConformance exercises the Store contract identically against both
// backends: upsert-latest-wins jobs, append-ordered events, lease trails,
// artifact round-trips and ErrClosed after Close.
func TestStoreConformance(t *testing.T) {
	for kind, st := range openBackends(t) {
		t.Run(kind, func(t *testing.T) {
			now := time.Now().UTC().Truncate(time.Second)
			if err := st.PutJob(JobRecord{ID: "job-1", State: "queued", Model: "vgg19", SubmittedAt: now}); err != nil {
				t.Fatal(err)
			}
			if err := st.PutJob(JobRecord{ID: "job-2", State: "queued", SubmittedAt: now}); err != nil {
				t.Fatal(err)
			}
			// Upsert: the later write for job-1 must win, without changing
			// submission order in the snapshot.
			if err := st.PutJob(JobRecord{ID: "job-1", State: "done", Model: "vgg19", SubmittedAt: now}); err != nil {
				t.Fatal(err)
			}
			for seq := uint64(1); seq <= 3; seq++ {
				ev := EventRecord{Seq: seq, Payload: raw(t, map[string]any{"seq": seq})}
				if err := st.AppendEvent("job-1", ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.PutLease(LeaseRecord{Job: "job-1", Lease: "lease-1", Devices: 4, Seq: 7}); err != nil {
				t.Fatal(err)
			}
			if err := st.PutLease(LeaseRecord{Job: "job-1", Lease: "lease-1", Devices: 4, Seq: 9, Released: true}); err != nil {
				t.Fatal(err)
			}
			if err := st.PutArtifact("aabbcc", []byte("warm-blob")); err != nil {
				t.Fatal(err)
			}
			if err := st.PutArtifact("aabbcc", []byte("warm-blob-v2")); err != nil {
				t.Fatal(err)
			}

			snap, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Jobs) != 2 || snap.Jobs[0].ID != "job-1" || snap.Jobs[1].ID != "job-2" {
				t.Fatalf("jobs = %+v, want job-1,job-2 in submission order", snap.Jobs)
			}
			if snap.Jobs[0].State != "done" {
				t.Fatalf("job-1 state = %q, want last-write done", snap.Jobs[0].State)
			}
			if err := ValidateEventLog("job-1", snap.Events["job-1"]); err != nil {
				t.Fatal(err)
			}
			if len(snap.Events["job-1"]) != 3 {
				t.Fatalf("events = %d, want 3", len(snap.Events["job-1"]))
			}
			if l := snap.Leases["job-1"]; !l.Released || l.Seq != 9 {
				t.Fatalf("lease = %+v, want released seq 9", l)
			}

			blob, err := st.GetArtifact("aabbcc")
			if err != nil || string(blob) != "warm-blob-v2" {
				t.Fatalf("GetArtifact = %q, %v; want overwritten blob", blob, err)
			}
			if _, err := st.GetArtifact("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("GetArtifact(missing) = %v, want ErrNotFound", err)
			}
			arts, err := st.Artifacts()
			if err != nil || len(arts) != 1 || arts[0].Key != "aabbcc" || arts[0].Size != len("warm-blob-v2") {
				t.Fatalf("Artifacts = %+v, %v", arts, err)
			}

			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.PutJob(JobRecord{ID: "job-3", State: "queued"}); !errors.Is(err, ErrClosed) {
				t.Fatalf("PutJob after Close = %v, want ErrClosed", err)
			}
			if err := st.AppendEvent("job-1", EventRecord{Seq: 4}); !errors.Is(err, ErrClosed) {
				t.Fatalf("AppendEvent after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestFileReopen writes through one File store, closes it, reopens the same
// directory and expects the full state back — the core crash-safety claim.
func TestFileReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("job-%d", i)
		if err := st.PutJob(JobRecord{ID: id, State: "queued", SubmittedAt: time.Now()}); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendEvent(id, EventRecord{Seq: 1, Payload: raw(t, map[string]int{"i": i})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutArtifact("deadbeef", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("reopened jobs = %d, want 3", len(snap.Jobs))
	}
	for _, j := range snap.Jobs {
		if err := ValidateEventLog(j.ID, snap.Events[j.ID]); err != nil {
			t.Fatal(err)
		}
		if len(snap.Events[j.ID]) != 1 {
			t.Fatalf("job %s events = %d, want 1", j.ID, len(snap.Events[j.ID]))
		}
	}
	if blob, err := st2.GetArtifact("deadbeef"); err != nil || string(blob) != "blob" {
		t.Fatalf("artifact after reopen = %q, %v", blob, err)
	}
}

// TestFileReplayKeepsJournalOrder: a restart after a kill replays an
// uncompacted journal whose lines are decoded on several cores. The replayed
// state must be the one the writes left, in journal order: the last record of
// each job wins and every event log comes back dense and in order.
func TestFileReplayKeepsJournalOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	states := []string{"queued", "running", "done"}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("job-%d", i%8)
		if err := st.PutJob(JobRecord{ID: id, State: states[(i/8)%3]}); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendEvent(id, EventRecord{Seq: uint64(i/8 + 1), Payload: raw(t, i)}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: a killed server leaves the journal uncompacted.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 8 {
		t.Fatalf("%d jobs after replay, want 8", len(snap.Jobs))
	}
	for k, rec := range snap.Jobs {
		if want := fmt.Sprintf("job-%d", k); rec.ID != want || rec.State != "running" {
			t.Fatalf("job %d after replay = %s %s, want %s running (the last write)", k, rec.ID, rec.State, want)
		}
		evs := snap.Events[rec.ID]
		if len(evs) != 5 {
			t.Fatalf("%s has %d events after replay, want 5", rec.ID, len(evs))
		}
		for n, ev := range evs {
			if ev.Seq != uint64(n+1) || string(ev.Payload) != fmt.Sprint(n*8+k) {
				t.Fatalf("%s event %d = seq %d payload %s, want seq %d payload %d", rec.ID, n, ev.Seq, ev.Payload, n+1, n*8+k)
			}
		}
	}
}

// TestFileTornTail simulates a crash mid-append: a truncated final journal
// line must be dropped on replay, everything before it preserved, and the
// reopened store must keep accepting writes.
func TestFileTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(JobRecord{ID: "job-1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(JobRecord{ID: "job-2", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Append half a record with no trailing newline — a torn write.
	j := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(j, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"job","job":{"id":"job-3","sta`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer st2.Close()
	snap, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 {
		t.Fatalf("jobs after torn tail = %d, want 2 (torn job-3 dropped)", len(snap.Jobs))
	}
	if err := st2.PutJob(JobRecord{ID: "job-4", State: "queued"}); err != nil {
		t.Fatalf("write after torn-tail recovery: %v", err)
	}
}

// TestFileMidJournalCorruption: garbage before the final line is not a torn
// write — it means lost state, and Open must refuse rather than silently
// drop records.
func TestFileMidJournalCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(JobRecord{ID: "job-1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	j := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(j, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A corrupt line followed by a valid one: corruption is NOT at the tail.
	if _, err := f.WriteString("{garbage\n{\"kind\":\"job\",\"job\":{\"id\":\"job-2\",\"state\":\"queued\"}}\n"); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if _, err := Open(dir); err == nil {
		t.Fatal("Open succeeded on mid-journal corruption, want error")
	}
}

// TestFileCompaction drives the journal past a tiny compaction threshold and
// checks the state survives compaction and a reopen.
func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCompactBytes(512)
	for i := 0; i < 50; i++ {
		// Same ID every time: compaction should collapse 50 journal entries
		// into one snapshot record.
		if err := st.PutJob(JobRecord{ID: "job-1", State: "queued", Model: strings.Repeat("x", 32)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutJob(JobRecord{ID: "job-1", State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot.json missing after compaction: %v", err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].State != "done" {
		t.Fatalf("after compaction jobs = %+v, want single job-1 done", snap.Jobs)
	}
}

// TestFileCompactionCrashWindow simulates a kill between compaction's
// snapshot rename and its journal truncation becoming durable: the directory
// holds the new snapshot AND the full pre-compaction journal. Replaying that
// journal over the snapshot must be a no-op — in particular "ev" records must
// not re-append (3 events must stay 3, not become 6) — so the reopened store
// passes event-log validation and recovery proceeds.
func TestFileCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(JobRecord{ID: "job-1", State: "running", SubmittedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := st.AppendEvent("job-1", EventRecord{Seq: seq, Payload: raw(t, map[string]uint64{"seq": seq})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutLease(LeaseRecord{Job: "job-1", Lease: "lease-1", Devices: 2, Seq: 5}); err != nil {
		t.Fatal(err)
	}

	// Capture the journal as it stands, let Close compact (snapshot + journal
	// truncation), then put the old journal back: the exact on-disk state a
	// crash in the rename-to-truncate window leaves behind.
	jpath := filepath.Join(dir, "journal.jsonl")
	oldJournal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(oldJournal) == 0 {
		t.Fatal("journal unexpectedly empty before Close")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, oldJournal, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after crash window: %v", err)
	}
	defer st2.Close()
	snap, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != "job-1" {
		t.Fatalf("jobs = %+v, want single job-1", snap.Jobs)
	}
	if got := len(snap.Events["job-1"]); got != 3 {
		t.Fatalf("events after replaying stale journal = %d, want 3 (no duplication)", got)
	}
	if err := ValidateEventLog("job-1", snap.Events["job-1"]); err != nil {
		t.Fatalf("event log invalid after crash-window replay: %v", err)
	}
	if l := snap.Leases["job-1"]; l.Seq != 5 || l.Devices != 2 {
		t.Fatalf("lease = %+v, want seq 5 devices 2", l)
	}

	// The store must also keep appending correctly from the recovered state.
	if err := st2.AppendEvent("job-1", EventRecord{Seq: 4, Payload: raw(t, map[string]uint64{"seq": 4})}); err != nil {
		t.Fatal(err)
	}
	snap, err = st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEventLog("job-1", snap.Events["job-1"]); err != nil || len(snap.Events["job-1"]) != 4 {
		t.Fatalf("events after post-recovery append = %d (%v), want 4", len(snap.Events["job-1"]), err)
	}
}

// TestFileArtifactKeyValidation rejects keys that could escape artifacts/.
func TestFileArtifactKeyValidation(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, key := range []string{"../escape", "a/b", "a\\b", ".hidden", ""} {
		if err := st.PutArtifact(key, []byte("x")); err == nil {
			t.Errorf("PutArtifact(%q) succeeded, want error", key)
		}
	}
}

// TestValidateEventLog covers the dense-sequence contract directly.
func TestValidateEventLog(t *testing.T) {
	ok := []EventRecord{{Seq: 1}, {Seq: 2}, {Seq: 3}}
	if err := ValidateEventLog("j", ok); err != nil {
		t.Fatal(err)
	}
	if err := ValidateEventLog("j", []EventRecord{{Seq: 1}, {Seq: 3}}); err == nil {
		t.Fatal("gap accepted")
	}
	if err := ValidateEventLog("j", []EventRecord{{Seq: 2}}); err == nil {
		t.Fatal("non-1-based log accepted")
	}
	if err := ValidateEventLog("j", nil); err != nil {
		t.Fatalf("empty log rejected: %v", err)
	}
}

// writeV1Store lays out a store as a release with version-1 snapshots left
// it: a one-object snapshot.json holding two jobs, job-a's first two events
// and its lease, and a journal that repeats job-a's second event (the
// replay the rename-to-truncate window leaves), adds its third and a third
// job. It returns the state Open must rebuild from that directory.
func writeV1Store(t *testing.T, dir string) *Snapshot {
	t.Helper()
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	jobA := JobRecord{ID: "job-a", State: "done", Model: "vgg19", SubmittedAt: at, Report: raw(t, map[string]int{"iter_us": 41})}
	jobB := JobRecord{ID: "job-b", State: "running", Model: "bert24", SubmittedAt: at}
	jobC := JobRecord{ID: "job-c", State: "queued", Model: "resnet200", SubmittedAt: at}
	ev := func(seq uint64) EventRecord {
		return EventRecord{Seq: seq, Payload: raw(t, map[string]uint64{"seq": seq})}
	}
	lease := LeaseRecord{Job: "job-a", Lease: "lease-1", Devices: 4, Seq: 2}
	v1, err := json.Marshal(snapshotV1{
		Version: 1,
		Jobs:    []JobRecord{jobA, jobB},
		Events:  map[string][]EventRecord{"job-a": {ev(1), ev(2)}},
		Leases:  map[string]LeaseRecord{"job-a": lease},
	})
	if err != nil {
		t.Fatal(err)
	}
	var journal []byte
	for _, rec := range []journalRec{
		{T: "ev", Job: "job-a", EvV: &EventRecord{Seq: 2, Payload: ev(2).Payload}},
		{T: "ev", Job: "job-a", EvV: &EventRecord{Seq: 3, Payload: ev(3).Payload}},
		{T: "job", JobV: &jobC},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return &Snapshot{
		Jobs:   []JobRecord{jobA, jobB, jobC},
		Events: map[string][]EventRecord{"job-a": {ev(1), ev(2), ev(3)}},
		Leases: map[string]LeaseRecord{"job-a": lease},
	}
}

// loadDir opens dir, checks its state is want, and closes it (compacting).
func loadDir(t *testing.T, dir, when string, want *Snapshot) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: Open: %v", when, err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	gotJSON, wantJSON := raw(t, got), raw(t, want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("%s: state\n%s\nwant\n%s", when, gotJSON, wantJSON)
	}
}

// TestFileOpensVersion1Snapshot opens a store whose snapshot.json is the
// version-1 single object, checks the state, and checks that the
// compaction at Close replaced it with journal lines that reopen to the
// same state.
func TestFileOpensVersion1Snapshot(t *testing.T) {
	dir := t.TempDir()
	want := writeV1Store(t, dir)
	loadDir(t, dir, "version-1 store", want)
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(snap), `{"t":"job"`) || strings.Count(string(snap), "\n") != 7 {
		t.Fatalf("compacted snapshot is not 7 journal lines (3 jobs, 3 events, 1 lease):\n%s", snap)
	}
	if fi, err := os.Stat(filepath.Join(dir, "journal.jsonl")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated after compaction: %v", err)
	}
	loadDir(t, dir, "reopened after compaction", want)
}

// TestFileUpgradeCrashWindows kills the first compaction of a version-1
// store at each point that leaves a different directory: before the rename
// (the old snapshot, the full journal and a complete snapshot.json.tmp that
// Open must not read) and after the rename replaced the old snapshot but
// before the journal truncation (the new snapshot and the full journal,
// whose events must not re-append). Both reopen to the same state.
func TestFileUpgradeCrashWindows(t *testing.T) {
	done := t.TempDir()
	want := writeV1Store(t, done)
	loadDir(t, done, "clean upgrade", want)
	compacted, err := os.ReadFile(filepath.Join(done, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}

	beforeRename := t.TempDir()
	writeV1Store(t, beforeRename)
	if err := os.WriteFile(filepath.Join(beforeRename, "snapshot.json.tmp"), compacted, 0o644); err != nil {
		t.Fatal(err)
	}
	loadDir(t, beforeRename, "crash before rename", want)

	afterRename := t.TempDir()
	writeV1Store(t, afterRename)
	if err := os.WriteFile(filepath.Join(afterRename, "snapshot.json"), compacted, 0o644); err != nil {
		t.Fatal(err)
	}
	loadDir(t, afterRename, "crash after rename", want)
}

// TestFileSnapshotCorruptionIsAnError: the snapshot is renamed into place
// whole, so unlike the journal's final line, no line of it may be dropped
// as a crash tail.
func TestFileSnapshotCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	loadDir(t, dir, "upgrade", writeV1Store(t, dir))
	path := filepath.Join(dir, "snapshot.json")
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(snap, `{"t":"job","job_v":{"id":`...), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(dir); err == nil {
		st.Close()
		t.Fatal("Open succeeded on a snapshot with a torn final line, want error")
	}
}

// TestFileReportFraming checks that a job's report is written after its
// record, compacted and framed, and reads back; that a line torn inside
// its report is dropped as a crash tail; and that a report byte corrupted
// in an earlier line fails Open.
func TestFileReportFraming(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	report := json.RawMessage("{\n  \"per_iter_s\": 0.25,\n  \"winner\": \"DP-CP-PS\"\n}")
	for _, rec := range []JobRecord{
		{ID: "job-1", State: "done", Report: report},
		{ID: "job-2", State: "done", Report: report},
	} {
		if err := st.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendEvent("job-2", EventRecord{Seq: 1, Payload: raw(t, "planned")}); err != nil {
		t.Fatal(err)
	}
	// Sever the store without Close, so the journal is what reopens.
	st.mu.Lock()
	st.closed = true
	st.journal.Close()
	st.mu.Unlock()
	jpath := filepath.Join(dir, "journal.jsonl")
	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(journal), "\n")
	const compact = `{"per_iter_s":0.25,"winner":"DP-CP-PS"}`
	if !strings.HasSuffix(lines[0], "\t"+compact+"\n") {
		t.Fatalf("job line does not end in its framed, compacted report: %q", lines[0])
	}

	reopen := func(journal string) (*Snapshot, error) {
		t.Helper()
		if err := os.WriteFile(jpath, []byte(journal), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			return nil, err
		}
		defer st.journal.Close()
		return st.Load()
	}
	snap, err := reopen(string(journal))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 || string(snap.Jobs[1].Report) != compact || len(snap.Events["job-2"]) != 1 {
		t.Fatalf("reopened state %+v, want both jobs with the compacted report and one event", snap)
	}

	// Torn inside job-2's report, with nothing after it: a crash tail.
	torn := lines[0] + lines[1][:len(lines[1])-10]
	if snap, err = reopen(torn); err != nil {
		t.Fatalf("Open with a line torn inside its report: %v", err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != "job-1" {
		t.Fatalf("jobs after a torn report = %+v, want job-1 only", snap.Jobs)
	}

	// One report byte changed in a line other lines follow: corruption.
	flipped := strings.Replace(lines[0], "0.25", "0.35", 1) + lines[1] + lines[2]
	if _, err := reopen(flipped); err == nil {
		t.Fatal("Open succeeded with a corrupted report mid-journal, want error")
	}
}
