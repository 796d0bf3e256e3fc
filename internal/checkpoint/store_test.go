package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"netconstant/internal/stats"
)

// storeState captures the durable bytes of a store at one moment.
type storeState struct {
	journal []byte
	snap    []byte // nil when no snapshot exists
}

func captureStore(t *testing.T, dir string) storeState {
	t.Helper()
	j, err := os.ReadFile(filepath.Join(dir, "ops.nclog"))
	if err != nil {
		t.Fatalf("capture journal: %v", err)
	}
	st := storeState{journal: j}
	if snap, err := os.ReadFile(filepath.Join(dir, "state.ncsnap")); err == nil {
		st.snap = snap
	} else if !os.IsNotExist(err) {
		t.Fatalf("capture snapshot: %v", err)
	}
	return st
}

// restoreStore materializes a captured state (with the journal cut at
// prefixLen bytes) into a fresh directory and opens it.
func restoreStore(t *testing.T, st storeState, prefixLen int, dir string) (*Store, error) {
	t.Helper()
	jp := filepath.Join(dir, "ops.nclog")
	sp := filepath.Join(dir, "state.ncsnap")
	if err := os.WriteFile(jp, st.journal[:prefixLen], 0o644); err != nil {
		t.Fatalf("restore journal: %v", err)
	}
	os.Remove(sp)
	if st.snap != nil {
		if err := os.WriteFile(sp, st.snap, 0o644); err != nil {
			t.Fatalf("restore snapshot: %v", err)
		}
	}
	return OpenStore(jp, sp)
}

// requireRecordPrefix fails unless got is a prefix of want of length at
// least min.
func requireRecordPrefix(t *testing.T, got, want [][]byte, min int, label string) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: recovered %d records, only %d were appended", label, len(got), len(want))
	}
	if len(got) < min {
		t.Fatalf("%s: recovered %d records, durable floor is %d", label, len(got), min)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d mismatch: got %x want %x", label, i, got[i], want[i])
		}
	}
}

// TestStoreSnapshotEqualsFullReplayEveryPrefix is the satellite property
// test: for states captured after every append/snapshot, and for every
// journal prefix length (torn-tail simulation), Replay(snapshot)+tail
// recovers exactly a prefix of the appended records — never reordered,
// duplicated, or beyond what was written — and the floor of that prefix
// is the snapshot's high-water mark.
func TestStoreSnapshotEqualsFullReplayEveryPrefix(t *testing.T) {
	rng := stats.NewRNG(41)
	dir := t.TempDir()
	s, err := OpenStore(filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	const n = 24
	var appended [][]byte
	type capture struct {
		st      storeState
		records int // appended records at capture time
		snapSeq int // records sealed in the snapshot at capture time
	}
	var captures []capture
	snapAt := map[int]bool{5: true, 11: true, 17: true}
	snapSeq := 0
	for i := 0; i < n; i++ {
		rec := make([]byte, 1+rng.Intn(120))
		rng.Read(rec)
		rec[0] = byte(i) // make records distinguishable even when short
		appended = append(appended, rec)
		if _, err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if snapAt[i] {
			if err := s.Snapshot(); err != nil {
				t.Fatalf("snapshot after %d: %v", i, err)
			}
			snapSeq = i + 1
		}
		captures = append(captures, capture{captureStore(t, dir), i + 1, snapSeq})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	scratch := t.TempDir()
	for ci, c := range captures {
		// Every frame boundary plus seeded intra-frame cuts: a prefix cut
		// mid-frame is the torn-tail case and must recover to the frames
		// before it.
		lengths := map[int]bool{0: true, len(c.st.journal): true}
		for k := 0; k < 6; k++ {
			lengths[rng.Intn(len(c.st.journal)+1)] = true
		}
		for l := range lengths {
			rs, err := restoreStore(t, c.st, l, scratch)
			if err != nil {
				t.Fatalf("capture %d prefix %d: open: %v", ci, l, err)
			}
			requireRecordPrefix(t, rs.Records(), appended, c.snapSeq,
				fmt.Sprintf("capture %d prefix %d/%d", ci, l, len(c.st.journal)))
			// A recovered store must keep accepting appends.
			got := len(rs.Records())
			if _, err := rs.Append([]byte("post-recovery")); err != nil {
				t.Fatalf("capture %d prefix %d: append after recovery: %v", ci, l, err)
			}
			if rs.Seq() != uint64(got+1) {
				t.Fatalf("capture %d prefix %d: append did not extend the sequence: %d after %d records", ci, l, rs.Seq(), got)
			}
			if err := rs.Close(); err != nil {
				t.Fatalf("close recovered: %v", err)
			}
		}
	}
}

// TestStoreTornMidTruncation simulates the crash window between the
// snapshot rename and the journal truncation: the snapshot seals every
// record while the journal still holds all of them. Recovery must apply
// each record exactly once.
func TestStoreTornMidTruncation(t *testing.T) {
	rng := stats.NewRNG(43)
	dir := t.TempDir()
	jp, sp := filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap")
	s, err := OpenStore(jp, sp)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var appended [][]byte
	for i := 0; i < 9; i++ {
		rec := make([]byte, 1+rng.Intn(60))
		rng.Read(rec)
		appended = append(appended, rec)
		if _, err := s.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	preTrunc := captureStore(t, dir) // journal holds 1..9, no snapshot
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	postTrunc := captureStore(t, dir) // snapshot holds 1..9, journal empty
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The torn state: the new snapshot paired with the pre-truncation
	// journal.
	torn := storeState{journal: preTrunc.journal, snap: postTrunc.snap}
	scratch := t.TempDir()
	rs, err := restoreStore(t, torn, len(torn.journal), scratch)
	if err != nil {
		t.Fatalf("open torn state: %v", err)
	}
	got := rs.Records()
	if len(got) != len(appended) {
		t.Fatalf("torn mid-truncation recovered %d records, want %d (double-application or loss)", len(got), len(appended))
	}
	requireRecordPrefix(t, got, appended, len(appended), "torn mid-truncation")
	if _, err := rs.Append([]byte("tail")); err != nil {
		t.Fatalf("append after torn recovery: %v", err)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestStoreConcurrentAppendsWithSnapshots hammers Append from several
// goroutines while another snapshots, then verifies the recovered
// history: contiguous sequence, every record exactly once, and each
// goroutine's records in its own program order.
func TestStoreConcurrentAppendsWithSnapshots(t *testing.T) {
	dir := t.TempDir()
	jp, sp := filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap")
	s, err := OpenStore(jp, sp)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append([]byte{byte(g), byte(i)}); err != nil {
					t.Errorf("writer %d append %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 5; k++ {
			if err := s.Snapshot(); err != nil {
				t.Errorf("snapshot %d: %v", k, err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rs, err := OpenStore(jp, sp)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rs.Close()
	got := rs.Records()
	if len(got) != writers*each {
		t.Fatalf("recovered %d records, want %d", len(got), writers*each)
	}
	next := make([]int, writers)
	for i, rec := range got {
		if len(rec) != 2 {
			t.Fatalf("record %d has %d bytes", i, len(rec))
		}
		g, k := int(rec[0]), int(rec[1])
		if g >= writers || k != next[g] {
			t.Fatalf("record %d: writer %d index %d, want index %d (per-writer order broken)", i, g, k, next[g])
		}
		next[g]++
	}
}

// TestStoreCorruptSnapshotTyped pins the refusal path: mid-snapshot
// damage must surface as a *CorruptError matching ErrCorrupt, never as
// silently shortened history.
func TestStoreCorruptSnapshotTyped(t *testing.T) {
	dir := t.TempDir()
	jp, sp := filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap")
	s, err := OpenStore(jp, sp)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Append([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	buf, err := os.ReadFile(sp)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(sp, buf, 0o644); err != nil {
		t.Fatalf("write damaged snapshot: %v", err)
	}
	_, err = OpenStore(jp, sp)
	if err == nil {
		t.Fatalf("damaged snapshot opened without error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged snapshot error %v does not match ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("damaged snapshot error %T is not *CorruptError", err)
	}
}

// FuzzStoreRecovery feeds arbitrary snapshot and journal bytes to
// OpenStore — the snapshot+tail recovery a restarted daemon runs on
// every tenant. It must never panic and may fail only with a typed
// corruption error; a store it does open must hold a gap-free history
// (one record per sequence number, none oversized) that survives an
// append, a compaction and a reopen unchanged.
func FuzzStoreRecovery(f *testing.F) {
	dir := f.TempDir()
	jp, sp := filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap")
	s, err := OpenStore(jp, sp)
	if err != nil {
		f.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf(`{"kind":"op","n":%d}`, i))); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(nil), read(jp)) // journal only
	full := read(jp)             // records 1..3, about to be sealed
	if err := s.Snapshot(); err != nil {
		f.Fatal(err)
	}
	f.Add(read(sp), full) // the crash window: sealed records still in the journal
	for i := 3; i < 5; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf(`{"kind":"op","n":%d}`, i))); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(read(sp), read(jp)) // snapshot plus tail
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		dir := t.TempDir()
		jp, sp := filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap")
		if err := os.WriteFile(jp, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			if err := os.WriteFile(sp, snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenStore(jp, sp)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped recovery error %v", err)
			}
			return
		}
		recs := append([][]byte(nil), s.Records()...)
		if uint64(len(recs)) != s.Seq() || s.TailRecords() < 0 || s.TailRecords() > len(recs) {
			t.Fatalf("recovered %d records at sequence %d with tail %d", len(recs), s.Seq(), s.TailRecords())
		}
		for i, r := range recs {
			if len(r) > maxRecord {
				t.Fatalf("record %d of %d bytes recovered", i, len(r))
			}
		}
		next := []byte("next")
		if _, err := s.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenStore(jp, sp)
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		defer again.Close()
		requireRecordPrefix(t, again.Records(), append(recs, next), len(recs)+1, "reopened")
		if len(again.Records()) != len(recs)+1 {
			t.Fatalf("reopened store holds %d records, want %d", len(again.Records()), len(recs)+1)
		}
	})
}
