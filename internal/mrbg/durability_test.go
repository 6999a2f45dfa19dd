package mrbg

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// contents is a store's chunks by key: what recovery must reproduce.
type contents map[string][]Edge

func snapshot(t *testing.T, ss *ShardedStore) contents {
	t.Helper()
	got := contents{}
	if err := ss.AllChunks(func(c Chunk) error {
		got[c.Key] = append([]Edge(nil), c.Edges...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// churn merges one seeded round into ss: Zipf-hot keys rewritten over
// and over, and now and then every edge of a key deleted so its group
// empties out.
func churn(t *testing.T, ss *ShardedStore, rng *rand.Rand, zipf *rand.Zipf, round int) {
	t.Helper()
	var delta []DeltaEdge
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		key := fmt.Sprintf("k%03d", zipf.Uint64())
		switch rng.Intn(5) {
		case 0: // empty the group
			for mk := uint64(0); mk < 4; mk++ {
				delta = append(delta, DeltaEdge{Key: key, MK: mk, Delete: true})
			}
		default:
			delta = append(delta, DeltaEdge{Key: key, MK: uint64(rng.Intn(4)), V2: fmt.Sprintf("v%d.%d", round, i)})
		}
	}
	if err := ss.Merge(delta, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func datFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "mrbg-*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestCompactionCrashPoints stops a compaction at every step that
// changes what is on disk, and reopens a copy of the directory as it
// stood: the store is the last checkpoint before the index commit, the
// compacted state after it, chunk for chunk — and one data file per
// shard survives the reopen. (At the parent commit the data file was
// renamed into place before the index was rewritten, and the reopen in
// between failed or read wrong offsets.)
func TestCompactionCrashPoints(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ss := openStore(t, Options{Dir: dir, Shards: shards, AppendBufSize: 64})
			rng := rand.New(rand.NewSource(7))
			zipf := rand.NewZipf(rng, 1.3, 1, 60)
			for round := 0; round < 40; round++ {
				churn(t, ss, rng, zipf, round)
			}
			if err := ss.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			checkpointed := snapshot(t, ss)
			// Changes no checkpoint covers: a compaction commits them,
			// a crash before its commit loses them.
			for round := 40; round < 45; round++ {
				churn(t, ss, rng, zipf, round)
			}
			current := snapshot(t, ss)
			if reflect.DeepEqual(checkpointed, current) {
				t.Fatal("the uncheckpointed rounds changed nothing")
			}

			// mixed is the store with shards below upTo as they are now and
			// the rest as checkpointed.
			mixed := func(upTo int) contents {
				m := contents{}
				for k, es := range checkpointed {
					if ss.shardFor(k) >= upTo {
						m[k] = es
					}
				}
				for k, es := range current {
					if ss.shardFor(k) < upTo {
						m[k] = es
					}
				}
				return m
			}
			steps := 0
			for i, sh := range ss.shards {
				i, st := i, sh.st
				st.step = func(name string) {
					steps++
					crash := t.TempDir()
					copyDir(t, dir, crash)
					want := mixed(i)
					switch name {
					case "created":
					case "copied":
						// The index commit itself may die before its rename.
						if err := os.WriteFile(filepath.Join(crash, shardIdxName(i)+".tmp"), []byte("half an image"), 0o644); err != nil {
							t.Fatal(err)
						}
					case "committed", "swept":
						want = mixed(i + 1)
					default:
						t.Fatalf("unknown compaction step %q", name)
					}
					re, err := Open(Options{Dir: crash})
					if err != nil {
						t.Fatalf("shard %d, crash after %q: reopen: %v", i, name, err)
					}
					defer re.Close()
					if got := snapshot(t, re); !reflect.DeepEqual(got, want) {
						t.Errorf("shard %d, crash after %q: reopened store is neither the checkpoint nor the compacted state", i, name)
					}
					if err := re.VerifyInvariants(); err != nil {
						t.Errorf("shard %d, crash after %q: %v", i, name, err)
					}
					if n := len(datFiles(t, crash)); n != shards {
						t.Errorf("shard %d, crash after %q: %d data files after reopen, want %d", i, name, n, shards)
					}
				}
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
				st.step = nil
			}
			if steps != 4*shards {
				t.Fatalf("%d compaction steps observed, want %d", steps, 4*shards)
			}
			if got := snapshot(t, ss); !reflect.DeepEqual(got, current) {
				t.Fatal("compaction changed the live store's contents")
			}
		})
	}
}

// TestCheckpointCostsWhatChanged: a checkpoint after a small merge
// appends a record of the changed entries, not the index; a checkpoint
// with nothing to commit touches nothing; and however the store churns,
// the log stays within twice its folded size and recovers the store.
func TestCheckpointCostsWhatChanged(t *testing.T) {
	dir := t.TempDir()
	ss := openStore(t, Options{Dir: dir})
	var initial []DeltaEdge
	for i := 0; i < 500; i++ {
		initial = append(initial, DeltaEdge{Key: fmt.Sprintf("word-%04d", i), MK: 1, V2: "1"})
	}
	noop := func(MergeResult) error { return nil }
	if err := ss.Merge(initial, noop); err != nil {
		t.Fatal(err)
	}
	if err := ss.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := ss.Stats()
	if first.IndexLogBytes != first.IndexFoldedBytes || first.IndexBytesWritten != first.IndexLogBytes {
		t.Fatalf("first checkpoint is not one folded image: %+v", first)
	}

	if err := ss.Merge([]DeltaEdge{{Key: "word-0007", MK: 2, V2: "1"}, {Key: "word-0100", MK: 1, Delete: true}}, noop); err != nil {
		t.Fatal(err)
	}
	if err := ss.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := ss.Stats()
	if wrote := second.IndexBytesWritten - first.IndexBytesWritten; wrote <= 0 || wrote > 64 {
		t.Fatalf("checkpoint of two changed keys wrote %d index bytes (the image is %d)", wrote, first.IndexFoldedBytes)
	}

	idx := filepath.Join(dir, shardIdxName(0))
	before, err := os.Stat(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(idx)
	if err != nil {
		t.Fatal(err)
	}
	if third := ss.Stats(); third.IndexBytesWritten != second.IndexBytesWritten || !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatalf("checkpoint with nothing changed wrote to the index log: %+v", third)
	}

	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.2, 1, 300)
	folds := 0
	for round := 0; round < 400; round++ {
		churn(t, ss, rng, zipf, round)
		prev := ss.Stats().IndexLogBytes
		if err := ss.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st := ss.Stats()
		if st.IndexLogBytes > 2*st.IndexFoldedBytes {
			t.Fatalf("round %d: index log %d bytes, folded size %d", round, st.IndexLogBytes, st.IndexFoldedBytes)
		}
		if st.IndexLogBytes < prev {
			folds++
		}
		if round%97 == 0 {
			crash := t.TempDir()
			copyDir(t, dir, crash)
			re, err := Open(Options{Dir: crash})
			if err != nil {
				t.Fatalf("round %d: reopen: %v", round, err)
			}
			if got, want := snapshot(t, re), snapshot(t, ss); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: a kill at the checkpoint boundary recovered different chunks", round)
			}
			re.Close()
		}
	}
	if folds == 0 {
		t.Fatal("400 checkpoints never folded the log")
	}
}

// twoCheckpoints builds a one-shard store with two checkpoints and
// garbage in its data file, returning the store's contents at each.
func twoCheckpoints(t *testing.T, dir string) (first, second contents) {
	t.Helper()
	ss, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.3, 1, 12)
	for round := 0; round < 6; round++ {
		churn(t, ss, rng, zipf, round)
	}
	if err := ss.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first = snapshot(t, ss)
	for round := 6; round < 9; round++ {
		churn(t, ss, rng, zipf, round)
	}
	if err := ss.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second = snapshot(t, ss)
	if reflect.DeepEqual(first, second) {
		t.Fatal("the second checkpoint changed nothing")
	}
	return first, second
}

// reopenDamaged opens dir and reads every chunk it indexes. It fails
// the test on a wrong chunk: the store must be one of the checkpointed
// states, each chunk either correct or an error. It returns which state
// was recovered (-1 when Open refused) and how many reads failed.
func reopenDamaged(t *testing.T, dir, what string, states ...contents) (state, readErrs int) {
	t.Helper()
	re, err := Open(Options{Dir: dir})
	if err != nil {
		return -1, 0
	}
	defer re.Close()
	keys := re.Keys()
	state = -1
	for i, want := range states {
		if len(want) != len(keys) {
			continue
		}
		match := true
		for _, k := range keys {
			if _, ok := want[k]; !ok {
				match = false
			}
		}
		if match {
			state = i
		}
	}
	if state < 0 {
		t.Fatalf("%s: reopened with keys %v, no checkpoint's", what, keys)
	}
	for _, k := range keys {
		c, ok, err := re.Get(k)
		if err != nil {
			readErrs++
			continue
		}
		if !ok || !reflect.DeepEqual(c.Edges, states[state][k]) {
			t.Fatalf("%s: chunk %q read back wrong: %+v, want %+v", what, k, c.Edges, states[state][k])
		}
	}
	return state, readErrs
}

// TestTornIndexTailIsDropped cuts the index log at every length inside
// its last record: each reopens as the checkpoint before it.
func TestTornIndexTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	first, second := twoCheckpoints(t, dir)
	idx, err := os.ReadFile(filepath.Join(dir, shardIdxName(0)))
	if err != nil {
		t.Fatal(err)
	}
	firstLen := recordHeader + int(binary.LittleEndian.Uint32(idx))
	if firstLen >= len(idx) {
		t.Fatalf("index log holds one record (%d of %d bytes); want an appended second", firstLen, len(idx))
	}
	for cut := firstLen; cut <= len(idx); cut++ {
		crash := t.TempDir()
		copyDir(t, dir, crash)
		if err := os.Truncate(filepath.Join(crash, shardIdxName(0)), int64(cut)); err != nil {
			t.Fatal(err)
		}
		state, errs := reopenDamaged(t, crash, fmt.Sprintf("index cut at %d", cut), first, second)
		want := 0
		if cut == len(idx) {
			want = 1
		}
		if state != want || errs != 0 {
			t.Fatalf("index cut at %d of %d: recovered checkpoint %d with %d read errors, want checkpoint %d", cut, len(idx), state, errs, want)
		}
		if fi, err := os.Stat(filepath.Join(crash, shardIdxName(0))); err != nil || (cut < len(idx) && fi.Size() != int64(firstLen)) {
			t.Fatalf("index cut at %d: torn tail not cut off the log (size %d, err %v)", cut, fi.Size(), err)
		}
	}
}

// TestByteFlipSweep flips every byte of the index log and of the data
// file in turn. A flip is an error at Open, an error reading the chunk
// it hit, or — in the log's last record — a dropped torn tail; it is
// never a chunk that reads back wrong.
func TestByteFlipSweep(t *testing.T) {
	dir := t.TempDir()
	first, second := twoCheckpoints(t, dir)
	for _, name := range []string{shardIdxName(0), shardDatName(0, 0)} {
		orig, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		crash := t.TempDir()
		copyDir(t, dir, crash)
		var refused, dropped, readErrs, harmless int
		for off := range orig {
			flipped := append([]byte(nil), orig...)
			flipped[off] ^= 0x40
			// Open may have cut a tail off either file: restore both.
			copyDir(t, dir, crash)
			if err := os.WriteFile(filepath.Join(crash, name), flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			state, errs := reopenDamaged(t, crash, fmt.Sprintf("%s byte %d flipped", name, off), first, second)
			switch {
			case state < 0:
				refused++
			case state == 0:
				dropped++
			case errs > 0:
				readErrs++
			default:
				harmless++ // a byte of an obsolete chunk version
			}
		}
		t.Logf("%s: %d bytes flipped: %d refused at Open, %d dropped the last record, %d failed the chunk's read, %d hit dead bytes",
			name, len(orig), refused, dropped, readErrs, harmless)
		if name == shardIdxName(0) && (harmless != 0 || readErrs != 0 || refused == 0 || dropped == 0) {
			t.Errorf("every index-log flip must refuse Open or drop the last record")
		}
		if name != shardIdxName(0) && (refused != 0 || dropped != 0 || readErrs == 0 || harmless == 0) {
			t.Errorf("every data-file flip must fail exactly the chunk it hit, or hit dead bytes")
		}
	}
}

// TestCompactionTriggerAndCounters: ShardedStore.Compact reconstructs
// the shards at the trigger and leaves the others alone, copies frames
// without counting as reads, and counts what it did.
func TestCompactionTriggerAndCounters(t *testing.T) {
	ss := openStore(t, Options{Shards: 2})
	noop := func(MergeResult) error { return nil }
	var hot, cold string
	for i := 0; hot == "" || cold == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		if ss.shardFor(k) == 0 && hot == "" {
			hot = k
		} else if ss.shardFor(k) == 1 && cold == "" {
			cold = k
		}
	}
	value := string(make([]byte, 4<<10))
	if err := ss.Merge([]DeltaEdge{{Key: hot, MK: 1, V2: value}, {Key: cold, MK: 1, V2: value}}, noop); err != nil {
		t.Fatal(err)
	}
	if ss.CompactDue() {
		t.Fatal("a store with no obsolete bytes is due for compaction")
	}
	for i := 0; !ss.CompactDue(); i++ {
		if i > 100 {
			t.Fatal("100 rewrites of a 4 KiB chunk never reached the trigger")
		}
		if err := ss.Merge([]DeltaEdge{{Key: hot, MK: 1, V2: value}}, noop); err != nil {
			t.Fatal(err)
		}
	}
	before := ss.ShardStats()
	if before[0].FileBytes < compactFloor || before[0].FileBytes < compactRatio*before[0].LiveBytes {
		t.Fatalf("due below the trigger: %+v", before[0])
	}
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	after := ss.ShardStats()
	if after[0].FileBytes != after[0].LiveBytes || after[0].Compactions != 1 || after[0].CompactedBytes != after[0].LiveBytes {
		t.Errorf("shard at the trigger after Compact: %+v", after[0])
	}
	if after[1].Compactions != 0 || after[1].FileBytes != before[1].FileBytes {
		t.Errorf("shard below the trigger was compacted: %+v", after[1])
	}
	if after[0].Reads != before[0].Reads || after[0].BytesRead != before[0].BytesRead {
		t.Errorf("compaction's copy counted as reads: %+v, before %+v", after[0], before[0])
	}
	if ss.CompactDue() {
		t.Error("still due after compacting")
	}
	if c, ok, err := ss.Get(hot); err != nil || !ok || c.Edges[0].V2 != value {
		t.Errorf("Get(%q) after compaction: ok=%v err=%v", hot, ok, err)
	}
}
