package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mupod/internal/fault"
)

// logCapture collects Logf output for assertions on replay warnings.
type logCapture struct {
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) contains(sub string) bool {
	for _, l := range lc.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// TestJournalReplayGolden replays the committed WAL fixture — which
// exercises every record type plus an unknown-job record and a torn
// final line — and checks the reconstructed job table field by field.
func TestJournalReplayGolden(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	var lc logCapture
	st, err := loadState(dir, lc.logf)
	if err != nil {
		t.Fatalf("loadState: %v", err)
	}

	wantOrder := []string{"j-000001", "j-000002", "j-000003", "j-000004", "j-000005"}
	if len(st.order) != len(wantOrder) {
		t.Fatalf("replayed %d jobs (%v), want %d", len(st.order), st.order, len(wantOrder))
	}
	for i, id := range wantOrder {
		if st.order[i] != id {
			t.Errorf("order[%d] = %s, want %s", i, st.order[i], id)
		}
	}
	if st.nextID != 5 {
		t.Errorf("nextID = %d, want 5", st.nextID)
	}

	at := func(s string) time.Time {
		ts, err := time.Parse(time.RFC3339, s)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}

	j1 := st.jobs["j-000001"]
	if j1.State != StateDone || j1.Attempt != 1 || !j1.CacheHit {
		t.Errorf("j-000001 = {state %s, attempt %d, cacheHit %v}, want done/1/true", j1.State, j1.Attempt, j1.CacheHit)
	}
	if j1.Result == nil || j1.Result.NetName != "testnet" || len(j1.Result.Bits) != 2 {
		t.Errorf("j-000001 result not replayed: %+v", j1.Result)
	}
	if !j1.Submitted.Equal(at("2026-08-01T10:00:00Z")) || !j1.Started.Equal(at("2026-08-01T10:00:01Z")) || !j1.Finished.Equal(at("2026-08-01T10:00:02Z")) {
		t.Errorf("j-000001 timestamps wrong: submitted=%v started=%v finished=%v", j1.Submitted, j1.Started, j1.Finished)
	}
	if j1.Req.Model != "testnet" || j1.Req.Profile.Images != 8 {
		t.Errorf("j-000001 request not replayed: %+v", j1.Req)
	}

	j2 := st.jobs["j-000002"]
	if j2.State != StateFailed || j2.Attempt != 2 {
		t.Errorf("j-000002 = {state %s, attempt %d}, want failed/2", j2.State, j2.Attempt)
	}
	if !strings.Contains(j2.Err, "injected error") {
		t.Errorf("j-000002 err = %q, want the final (permanent) failure", j2.Err)
	}
	if j2.Req.Network == "" || j2.Req.TrainSteps != 50 {
		t.Errorf("j-000002 netdesc request not replayed: %+v", j2.Req)
	}
	// The interrupted→queued→running cycle must leave the *second*
	// running record's timestamp as Started.
	if !j2.Started.Equal(at("2026-08-01T10:00:07Z")) {
		t.Errorf("j-000002 started = %v, want the attempt-2 running time", j2.Started)
	}

	if j3 := st.jobs["j-000003"]; j3.State != StateCancelled || !j3.Finished.Equal(at("2026-08-01T10:00:10Z")) {
		t.Errorf("j-000003 = {state %s, finished %v}, want cancelled at 10:00:10", j3.State, j3.Finished)
	}
	// j-000004 was running at the crash; the torn tail cut its next
	// transition off mid-line.
	if j4 := st.jobs["j-000004"]; j4.State != StateRunning || j4.Attempt != 1 {
		t.Errorf("j-000004 = {state %s, attempt %d}, want running/1", j4.State, j4.Attempt)
	}
	if j5 := st.jobs["j-000005"]; j5.State != StateQueued {
		t.Errorf("j-000005 state = %s, want queued", j5.State)
	}

	// Timeline reconstruction from a pre-timeline journal: the lifecycle
	// entries regrow from the submit/state lines alone (the fixture
	// predates stage records entirely).
	wantTL := []struct{ event, at string }{
		{"queued", "2026-08-01T10:00:00Z"},
		{"running", "2026-08-01T10:00:01Z"},
		{"done", "2026-08-01T10:00:02Z"},
	}
	if tl := j1.Timeline; len(tl) != len(wantTL) {
		t.Errorf("j-000001 timeline has %d entries (%+v), want %d", len(tl), tl, len(wantTL))
	} else {
		for i, w := range wantTL {
			if tl[i].Event != w.event || !tl[i].At.Equal(at(w.at)) {
				t.Errorf("j-000001 timeline[%d] = {%s %v}, want {%s %s}", i, tl[i].Event, tl[i].At, w.event, w.at)
			}
			if tl[i].SinceMS < 0 {
				t.Errorf("j-000001 timeline[%d] since_prev_ms = %g, want >= 0", i, tl[i].SinceMS)
			}
		}
	}
	// j-000002 went queued→running→interrupted→queued→running→failed;
	// every transition must land on the timeline in order.
	if tl := j2.Timeline; len(tl) != 6 || tl[2].Event != string(StateInterrupted) || tl[5].Event != string(StateFailed) {
		t.Errorf("j-000002 timeline = %+v, want the 6-step retry cycle", tl)
	}

	if st.droppedBytes == 0 {
		t.Error("torn final line not reported in droppedBytes")
	}
	if !lc.contains("corrupt") {
		t.Errorf("no corruption warning logged; got %q", lc.lines)
	}
	if !lc.contains("unknown job j-000099") {
		t.Errorf("unknown-job record not reported; got %q", lc.lines)
	}
}

// TestJournalReplayMixedTimeline replays a journal that mixes
// pre-timeline records (lifecycle only) with post-timeline ones (stage
// records interleaved) — the shape a daemon upgraded in place produces.
// Both generations must reconstruct, and a stage record for an unknown
// job must warn, not abort.
func TestJournalReplayMixedTimeline(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_mixed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	var lc logCapture
	st, err := loadState(dir, lc.logf)
	if err != nil {
		t.Fatalf("loadState: %v", err)
	}
	if len(st.order) != 2 {
		t.Fatalf("replayed %d jobs (%v), want 2", len(st.order), st.order)
	}

	events := func(id string) []string {
		var out []string
		for _, e := range st.jobs[id].Timeline {
			out = append(out, e.Event)
		}
		return out
	}
	if got, want := events("j-000001"), []string{"queued", "running", "done"}; !slicesEqual(got, want) {
		t.Errorf("old-format job timeline = %v, want %v", got, want)
	}
	if got, want := events("j-000002"), []string{"queued", "running", "resolve", "profile", "search", "solve", "done"}; !slicesEqual(got, want) {
		t.Errorf("new-format job timeline = %v, want %v", got, want)
	}
	// Each fixture step is one second apart; SinceMS must say so.
	for i, e := range st.jobs["j-000002"].Timeline {
		want := 1000.0
		if i == 0 {
			want = 0
		}
		if e.SinceMS != want {
			t.Errorf("j-000002 timeline[%d] since_prev_ms = %g, want %g", i, e.SinceMS, want)
		}
	}
	if !lc.contains("unknown job j-000099") {
		t.Errorf("stage record for unknown job not reported; got %q", lc.lines)
	}
	if st.droppedBytes != 0 {
		t.Errorf("clean journal reported %d dropped bytes", st.droppedBytes)
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJournalSnapshotRoundTrip writes a snapshot, appends journal
// records on top, and checks the merged replay.
func TestJournalSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	done := time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC)
	snap := snapshot{
		NextID: 7,
		Jobs: []jobRecord{{
			ID: "j-000007", Req: tinyRequest(), State: StateDone, Attempt: 1,
			Submitted: done, Started: done, Finished: done,
			Result: &JobResult{NetName: "testnet"},
		}},
	}
	if err := writeSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	jr, err := openJournal(dir, false, true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	sub := time.Date(2026, 8, 1, 9, 1, 0, 0, time.UTC)
	req := tinyRequest()
	jr.append(journalRec{T: "submit", ID: "j-000008", Time: sub, Req: &req})
	jr.append(journalRec{T: "state", ID: "j-000008", Time: sub.Add(time.Second), State: StateRunning, Attempt: 1})
	jr.Close()

	st, err := loadState(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if st.nextID != 8 {
		t.Errorf("nextID = %d, want 8 (journal beyond snapshot)", st.nextID)
	}
	if got := st.jobs["j-000007"]; got == nil || got.State != StateDone || got.Result == nil {
		t.Errorf("snapshot job not restored: %+v", got)
	}
	if got := st.jobs["j-000008"]; got == nil || got.State != StateRunning || got.Attempt != 1 {
		t.Errorf("journal job not merged: %+v", got)
	}
	if st.droppedBytes != 0 {
		t.Errorf("clean journal reported %d dropped bytes", st.droppedBytes)
	}
}

// TestJournalCorruptSnapshotIsFatal: the snapshot is written atomically,
// so damage is an external event the manager must not paper over.
func TestJournalCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadState(dir, t.Logf); err == nil || !strings.Contains(err.Error(), "corrupt snapshot") {
		t.Fatalf("loadState on corrupt snapshot = %v, want corrupt-snapshot error", err)
	}
}

// TestJournalEmptyDirIsFresh: a DataDir with no prior state replays to
// an empty table.
func TestJournalEmptyDirIsFresh(t *testing.T) {
	st, err := loadState(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.jobs) != 0 || st.nextID != 0 {
		t.Fatalf("fresh dir replayed %d jobs, nextID %d", len(st.jobs), st.nextID)
	}
}

// TestManagerCompactsOnStartup: restarting over a DataDir folds the old
// journal into a fresh snapshot and truncates the journal, and the
// previous uptime's jobs stay visible with their results.
func TestManagerCompactsOnStartup(t *testing.T) {
	dir := t.TempDir()
	a := newTestManager(t, Config{Workers: 1, DataDir: dir, NoFsync: true})
	j, err := a.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("first uptime left no journal (err=%v)", err)
	}

	b := newTestManager(t, Config{Workers: 1, DataDir: dir, NoFsync: true})
	got, err := b.Get(j.ID())
	if err != nil {
		t.Fatalf("restarted manager lost job %s: %v", j.ID(), err)
	}
	if got.State() != StateDone || got.Result() == nil || got.Result().NetName != "testnet" {
		t.Fatalf("restored job = {state %s, result %v}", got.State(), got.Result())
	}
	if fi, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("startup compaction wrote no snapshot (err=%v)", err)
	}
	// The truncated journal holds exactly its epoch header: one line,
	// and nothing about the previous uptime's jobs.
	jb, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(jb), "\n"), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"t":"epoch"`) {
		t.Fatalf("startup compaction left journal with %d lines (%q), want the single epoch header", len(lines), string(jb))
	}
}

// TestJournalAppendFailpointDegradesGracefully: a failing journal write
// costs durability, never availability — the job still completes.
func TestJournalAppendFailpointDegradesGracefully(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, DataDir: dir, NoFsync: true})
	if err := fault.Enable("serve.journal.append", "error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
}

// TestReplayDropsRemovedKernelFields: a data dir written while jobs
// could still name a compute backend ("kernel", and a stage policy's
// "impl") must keep replaying. Replay decodes leniently, so the removed
// fields are dropped, and both the snapshot job and the journal job
// finish with the allocation of the same request without them.
func TestReplayDropsRemovedKernelFields(t *testing.T) {
	legacyReq := func() string {
		b, err := json.Marshal(tinyRequest())
		if err != nil {
			t.Fatal(err)
		}
		var req map[string]any
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		req["kernel"] = "naive"
		req["profile"].(map[string]any)["Kernel"] = map[string]any{"impl": "naive"}
		req["search"].(map[string]any)["Kernel"] = map[string]any{"impl": "parallel", "intra_workers": 2}
		if b, err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	dir := t.TempDir()
	at := time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC).Format(time.RFC3339)
	snap := fmt.Sprintf(`{"next_id":1,"jobs":[{"id":"j-000001","req":%s,"state":"queued","submitted":%q}]}`, legacyReq(), at)
	wal := fmt.Sprintf(`{"t":"submit","id":"j-000002","time":%q,"req":%s}`+"\n", at, legacyReq())
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := newTestManager(t, Config{Workers: 1})
	want, err := fresh.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, want, StateDone)

	m := newTestManager(t, Config{Workers: 1, DataDir: dir, NoFsync: true})
	for _, id := range []string{"j-000001", "j-000002"} {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("legacy job %s not replayed: %v", id, err)
		}
		waitState(t, j, StateDone)
		got, ref := j.Result(), want.Result()
		if !reflect.DeepEqual(got.Bits, ref.Bits) || got.SigmaYL != ref.SigmaYL || got.EffectiveInputBits != ref.EffectiveInputBits {
			t.Errorf("job %s: bits %v σ %v eff %v, want %v σ %v eff %v", id,
				got.Bits, got.SigmaYL, got.EffectiveInputBits, ref.Bits, ref.SigmaYL, ref.EffectiveInputBits)
		}
	}
}
