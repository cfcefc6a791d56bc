package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// File is the crash-safe Store: an append-only JSONL journal plus fsynced,
// atomically-renamed snapshots, with warm artifacts as individual files.
//
// Layout under the root directory:
//
//	journal.jsonl    one record per line, appended and fsynced per write
//	snapshot.json    the compacted state as journal lines (one record per
//	                 job, event and lease), written via tmp + fsync + rename
//	artifacts/<key>  one warm-artifact blob per workload key (tmp + rename)
//
// A line is a JSON record; a job record with a report is followed by a tab
// and the report, whose length and CRC-32C the record carries (appendRecord).
// Open replays the snapshot and then the journal through one parallel line
// decoder (replayLines), which copies reports without scanning them as JSON.
// Lines without a framed report, as every line was written before, decode
// the same way. A version-1 snapshot.json, one JSON object written by
// earlier releases, still opens; the next compaction replaces it.
//
// Crash-safety argument:
//
//   - Every journal append is a single line written and fsynced before the
//     call returns, so an acknowledged write survives a kill. A crash mid-
//     append can only leave a partial *final* line; Open tolerates exactly
//     that (the torn tail is dropped, every complete line is replayed). A
//     line torn inside its report fails the report's length check, and a
//     report corrupted in place fails its CRC, so neither is taken for a
//     whole record.
//   - Compaction writes snapshot.json.tmp, fsyncs it, renames it over
//     snapshot.json (atomic on POSIX, whichever version the old file was),
//     fsyncs the directory, and only then truncates (and fsyncs) the
//     journal. A crash before the rename leaves the old snapshot and the
//     full journal, and Open never reads the .tmp file. A crash after it
//     leaves the new snapshot and a possibly still full journal. Both replay
//     to the same state because every journal record is an idempotent upsert
//     over the snapshot: jobs and leases are keyed last-write-wins, and an
//     "ev" record is skipped when the job's dense 1-based log already covers
//     its Seq (see applyLocked).
//   - The snapshot's own lines rebuild the mirror exactly: they are the
//     mirror's jobs in submission order, each job's events in log order and
//     the leases, so applying them to an empty mirror accepts every one.
//     The snapshot is never torn (it is renamed into place whole), so any
//     line that does not decode is an error, not a crash tail.
//   - Artifacts are written to <key>.tmp, fsynced and renamed, so a reader
//     (local or a peer fetch) never observes a half-written blob.
//
// The store keeps a resident mirror of the journaled state so Load and
// compaction never re-read the journal after Open.
type File struct {
	dir string

	mu      sync.Mutex
	closed  bool
	journal *os.File
	jsize   int64
	// compactAt triggers compaction when the journal exceeds this many
	// bytes (0 = DefaultCompactBytes).
	compactAt int64

	// Resident mirror of the persisted state (same shape as Mem).
	jobs   map[string]JobRecord
	order  []string
	events map[string][]EventRecord
	leases map[string]LeaseRecord
}

// DefaultCompactBytes is the journal size that triggers a snapshot + journal
// truncation. Job records are small (a few KB with reports); the default
// keeps replay under a few thousand records.
const DefaultCompactBytes = 4 << 20

const (
	journalName  = "journal.jsonl"
	snapshotName = "snapshot.json"
	artifactsDir = "artifacts"
)

// journalRec is one journal line: a tagged union of the record kinds.
type journalRec struct {
	T string `json:"t"` // "job" | "ev" | "lease"
	// Job is the owning job ID for "ev" records.
	Job   string       `json:"job,omitempty"`
	JobV  *JobRecord   `json:"job_v,omitempty"`
	EvV   *EventRecord `json:"ev_v,omitempty"`
	LeasV *LeaseRecord `json:"lease_v,omitempty"`
	// ReportLen and ReportCRC frame the report of a "job" record, which
	// follows the JSON on its line (see appendRecord).
	ReportLen int    `json:"report_len,omitempty"`
	ReportCRC uint32 `json:"report_crc,omitempty"`
}

// castagnoli is the CRC-32C table, computed in hardware on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errReportFrame reports a framed report whose length or CRC does not match
// its record: a torn write, or corruption.
var errReportFrame = errors.New("report does not match its length and CRC")

// appendRecord appends rec to buf as one line. A job's report, most of a
// journal's bytes, is written after the record's JSON and a tab, compacted,
// with its length and CRC-32C in the record, so replay checks and copies it
// without scanning it as JSON. Compact JSON holds no raw tab or newline, so
// neither the record nor the report can end the line or the record early.
func appendRecord(buf []byte, rec journalRec) ([]byte, error) {
	var report bytes.Buffer
	if rec.JobV != nil && len(rec.JobV.Report) > 0 {
		if err := json.Compact(&report, rec.JobV.Report); err != nil {
			return nil, fmt.Errorf("store: encode report of %s: %w", rec.JobV.ID, err)
		}
		job := *rec.JobV
		job.Report = nil
		rec.JobV = &job
		rec.ReportLen, rec.ReportCRC = report.Len(), crc32.Checksum(report.Bytes(), castagnoli)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	buf = append(buf, line...)
	if report.Len() > 0 {
		buf = append(append(buf, '\t'), report.Bytes()...)
	}
	return append(buf, '\n'), nil
}

// decodeRecord decodes one line appendRecord wrote, or one without a
// framed report, which is how every line was written before reports were
// framed.
func decodeRecord(line []byte, rec *journalRec) error {
	head, report, framed := bytes.Cut(line, []byte{'\t'})
	if err := json.Unmarshal(head, rec); err != nil {
		return err
	}
	if !framed && rec.ReportLen == 0 {
		return nil
	}
	if rec.JobV == nil || rec.ReportLen != len(report) || crc32.Checksum(report, castagnoli) != rec.ReportCRC {
		return errReportFrame
	}
	rec.JobV.Report = bytes.Clone(report)
	return nil
}

// snapshotV1 is the version-1 snapshot schema: the whole state as one JSON
// object. Open still reads it; compaction writes journal lines instead.
type snapshotV1 struct {
	Version int                      `json:"version"`
	Jobs    []JobRecord              `json:"jobs"`
	Events  map[string][]EventRecord `json:"events"`
	Leases  map[string]LeaseRecord   `json:"leases"`
}

// snapshotV1Prefix starts every version-1 snapshot, whose first field is
// its version; a snapshot in journal lines starts with a record's tag.
var snapshotV1Prefix = []byte(`{"version":`)

// Open opens (creating if needed) a file store rooted at dir, replaying any
// existing snapshot and journal into the resident mirror. A torn final
// journal line — the signature of a crash mid-append — is dropped; any other
// malformed line is a hard error (the journal is not ours to guess about).
func Open(dir string) (*File, error) {
	if err := os.MkdirAll(filepath.Join(dir, artifactsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	f := &File{
		dir:       dir,
		compactAt: DefaultCompactBytes,
		jobs:      make(map[string]JobRecord),
		events:    make(map[string][]EventRecord),
		leases:    make(map[string]LeaseRecord),
	}
	if err := f.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := f.replayJournal(); err != nil {
		return nil, err
	}
	j, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	st, err := j.Stat()
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("store: stat journal: %w", err)
	}
	f.journal = j
	f.jsize = st.Size()
	return f, nil
}

func (f *File) loadSnapshot() error {
	raw, err := os.ReadFile(filepath.Join(f.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	if !bytes.HasPrefix(raw, snapshotV1Prefix) {
		return f.replayLines(raw, "snapshot", false)
	}
	var snap snapshotV1
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	if snap.Version != 1 {
		return fmt.Errorf("store: unsupported snapshot version %d", snap.Version)
	}
	for _, rec := range snap.Jobs {
		f.order = append(f.order, rec.ID)
		f.jobs[rec.ID] = rec
	}
	for id, evs := range snap.Events {
		f.events[id] = evs
	}
	for id, l := range snap.Leases {
		f.leases[id] = l
	}
	return nil
}

// replayJournal folds every complete journal line into the mirror, in order.
func (f *File) replayJournal() error {
	raw, err := os.ReadFile(filepath.Join(f.dir, journalName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read journal: %w", err)
	}
	return f.replayLines(raw, "journal", true)
}

// replayLines folds the records of raw, a snapshot or a journal (what names
// it in errors), into the mirror in line order. Decoding the lines is most
// of a restart's work and each line decodes on its own, so the lines are
// decoded on every core and then applied in order. A line that does not
// decode is an error, except the final line of a journal (tornTail): that
// is the torn write of a crash mid-append, and it is dropped.
func (f *File) replayLines(raw []byte, what string, tornTail bool) error {
	lines := journalLines(raw)
	recs := make([]journalRec, len(lines))
	errs := make([]error, len(lines))
	workers := min(runtime.GOMAXPROCS(0), len(lines))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(lines); i += workers {
				if len(lines[i]) > 0 {
					errs[i] = decodeRecord(lines[i], &recs[i])
				}
			}
		}(w)
	}
	wg.Wait()
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		if errs[i] != nil {
			// A torn write can only be the final line; whether more lines
			// follow distinguishes a crash tail from rot.
			if !tornTail || i < len(lines)-1 {
				return fmt.Errorf("store: %s line %d corrupt mid-file: %w", what, i+1, errs[i])
			}
			return nil // torn tail from a crash mid-append: drop it
		}
		f.applyLocked(recs[i])
	}
	return nil
}

// journalLines splits a journal into lines the way bufio.ScanLines does (a
// final line needs no newline, a trailing \r is dropped), with surrounding
// space trimmed. Blank lines stay, empty, so line numbers stay true.
func journalLines(raw []byte) [][]byte {
	var lines [][]byte
	for len(raw) > 0 {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			raw = nil
		}
		lines = append(lines, bytes.TrimSpace(line))
	}
	return lines
}

// applyLocked folds one journal record into the resident mirror.
func (f *File) applyLocked(rec journalRec) {
	switch rec.T {
	case "job":
		if rec.JobV == nil {
			return
		}
		if _, ok := f.jobs[rec.JobV.ID]; !ok {
			f.order = append(f.order, rec.JobV.ID)
		}
		f.jobs[rec.JobV.ID] = *rec.JobV
	case "ev":
		if rec.EvV == nil || rec.Job == "" {
			return
		}
		// Event logs are dense and 1-based, so a record whose Seq the log
		// already covers is a replay of one the snapshot absorbed — the
		// crash-between-rename-and-truncate window leaves exactly that
		// journal behind. Skipping it makes replay idempotent.
		if rec.EvV.Seq <= uint64(len(f.events[rec.Job])) {
			return
		}
		f.events[rec.Job] = append(f.events[rec.Job], *rec.EvV)
	case "lease":
		if rec.LeasV == nil {
			return
		}
		f.leases[rec.LeasV.Job] = *rec.LeasV
	}
}

// append journals one record (write + fsync) and folds it into the mirror,
// compacting when the journal has outgrown the threshold. Callers hold f.mu.
func (f *File) appendLocked(rec journalRec) error {
	if f.closed {
		return ErrClosed
	}
	raw, err := appendRecord(nil, rec)
	if err != nil {
		return err
	}
	if _, err := f.journal.Write(raw); err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	if err := f.journal.Sync(); err != nil {
		return fmt.Errorf("store: fsync journal: %w", err)
	}
	f.jsize += int64(len(raw))
	f.applyLocked(rec)
	if f.jsize >= f.compactThreshold() {
		if err := f.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (f *File) compactThreshold() int64 {
	if f.compactAt > 0 {
		return f.compactAt
	}
	return DefaultCompactBytes
}

// compactLocked writes the resident mirror as a fresh snapshot in journal
// lines (tmp + fsync + atomic rename + dir fsync) and truncates the journal.
// Callers hold f.mu.
func (f *File) compactLocked() error {
	var raw []byte
	put := func(rec journalRec) (err error) {
		raw, err = appendRecord(raw, rec)
		return err
	}
	for _, id := range f.order {
		job := f.jobs[id]
		if err := put(journalRec{T: "job", JobV: &job}); err != nil {
			return err
		}
	}
	for _, id := range sortedKeys(f.events) {
		evs := f.events[id]
		for i := range evs {
			if err := put(journalRec{T: "ev", Job: id, EvV: &evs[i]}); err != nil {
				return err
			}
		}
	}
	for _, id := range sortedKeys(f.leases) {
		lease := f.leases[id]
		if err := put(journalRec{T: "lease", LeasV: &lease}); err != nil {
			return err
		}
	}
	if err := atomicWrite(filepath.Join(f.dir, snapshotName), raw); err != nil {
		return err
	}
	if err := syncDir(f.dir); err != nil {
		return err
	}
	// The snapshot now covers everything; an empty journal replays to it.
	// Replay is idempotent even if the truncate never becomes durable, but
	// fsyncing it keeps the common restart path on the fast empty-journal
	// replay instead of re-skipping a full stale journal.
	if err := f.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate journal: %w", err)
	}
	if _, err := f.journal.Seek(0, 0); err != nil {
		return fmt.Errorf("store: rewind journal: %w", err)
	}
	if err := f.journal.Sync(); err != nil {
		return fmt.Errorf("store: fsync truncated journal: %w", err)
	}
	f.jsize = 0
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// atomicWrite writes data to path via tmp + fsync + rename.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if _, err := file.Write(data); err != nil {
		file.Close()
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a power cut.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}

// Kind names the backend.
func (f *File) Kind() string { return "file" }

// PutJob journals a job upsert.
func (f *File) PutJob(rec JobRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appendLocked(journalRec{T: "job", JobV: &rec})
}

// AppendEvent journals one event append.
func (f *File) AppendEvent(jobID string, ev EventRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appendLocked(journalRec{T: "ev", Job: jobID, EvV: &ev})
}

// PutLease journals a lease-trail upsert.
func (f *File) PutLease(rec LeaseRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appendLocked(journalRec{T: "lease", LeasV: &rec})
}

// artifactPath maps a key to its blob file, refusing path-escaping keys (the
// service passes lowercase hex fingerprints; anything else is a bug or an
// attack through the peer API).
func (f *File) artifactPath(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("store: invalid artifact key %q", key)
	}
	return filepath.Join(f.dir, artifactsDir, key), nil
}

// PutArtifact writes a warm-artifact blob atomically.
func (f *File) PutArtifact(key string, blob []byte) error {
	path, err := f.artifactPath(key)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return atomicWrite(path, blob)
}

// GetArtifact reads a warm-artifact blob, or ErrNotFound.
func (f *File) GetArtifact(key string) ([]byte, error) {
	path, err := f.artifactPath(key)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: read artifact %s: %w", key, err)
	}
	return blob, nil
}

// Artifacts lists stored artifact keys, sorted.
func (f *File) Artifacts() ([]ArtifactInfo, error) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	entries, err := os.ReadDir(filepath.Join(f.dir, artifactsDir))
	if err != nil {
		return nil, fmt.Errorf("store: list artifacts: %w", err)
	}
	var out []ArtifactInfo
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		info := ArtifactInfo{Key: e.Name()}
		if fi, err := e.Info(); err == nil {
			info.Size = int(fi.Size())
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Load snapshots the resident mirror (the replayed persisted state).
func (f *File) Load() (*Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	snap := &Snapshot{
		Events: make(map[string][]EventRecord, len(f.events)),
		Leases: make(map[string]LeaseRecord, len(f.leases)),
	}
	for _, id := range f.order {
		snap.Jobs = append(snap.Jobs, f.jobs[id])
	}
	for id, evs := range f.events {
		snap.Events[id] = append([]EventRecord(nil), evs...)
	}
	for id, l := range f.leases {
		snap.Leases[id] = l
	}
	return snap, nil
}

// Close compacts once (so restarts replay a snapshot, not a long journal)
// and releases the journal handle. Closing twice is safe. Close is also the
// crash seam: tests sever a store mid-flight by closing it, after which every
// in-flight write fails with ErrClosed exactly as if the process had died.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	err := f.compactLocked()
	f.closed = true
	if cerr := f.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// SetCompactBytes overrides the journal-size compaction threshold (tests).
func (f *File) SetCompactBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.compactAt = n
}
