package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"i2mapreduce/internal/datagen"
	"i2mapreduce/internal/kv"
)

// probe is the read the writer issues after a micro-batch commits: a
// key the batch changed and what the benchmark's own model says it now
// holds. value is empty where the model cannot know it (PageRank
// ranks); the epoch check and the final oracle cover those.
type probe struct {
	key   string
	found bool
	value string
}

// source generates a workload's delta stream from the seed and keeps
// the benchmark's model of what the system must hold: the input as
// applied so far, and per key the expected read result.
type source interface {
	// next returns the next micro-batch, exactly the workload's batch
	// size, and folds it into the model.
	next() ([]kv.Delta, probe)
	// final is the input after every batch handed out so far.
	final() []kv.Pair
	// readKey draws a key for the readers: Zipf over the key space, one
	// in five absent from it.
	readKey(rng *rand.Rand, zipf *rand.Zipf) string
	// keySpace is the number of present keys readKey draws from.
	keySpace() int
	// expect is what a read of key returns once the writer is idle.
	expect(key string) (found bool, value string)
	// groupKeys lists, sorted and distinct, the reduce groups a batch
	// touches: the keys of the engine's MRBG and result stores.
	groupKeys(ds []kv.Delta) []string
}

func distinctSorted(keys []string) []string {
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

func sortedPairs(m map[string]string) []kv.Pair {
	ps := make([]kv.Pair, 0, len(m))
	for k, v := range m {
		ps = append(ps, kv.Pair{Key: k, Value: v})
	}
	kv.SortPairs(ps)
	return ps
}

// applyInput folds one delta record into the input map.
func applyInput(input map[string]string, d kv.Delta) {
	if d.Op == kv.OpDelete {
		delete(input, d.Key)
	} else {
		input[d.Key] = d.Value
	}
}

// mutateStream cuts fixed-size batches out of successive datagen.Mutate
// rounds over an evolving dataset.
type mutateStream struct {
	seed    int64
	round   int
	data    []kv.Pair // dataset after the last round
	pending []kv.Delta
	opts    func(round int) datagen.MutateOptions
}

func (m *mutateStream) take(n int) []kv.Delta {
	for len(m.pending) < n {
		m.round++
		ds, updated := datagen.Mutate(m.seed+int64(m.round), m.data, m.opts(m.round))
		m.data = updated
		m.pending = append(m.pending, ds...)
	}
	out := m.pending[:n:n]
	m.pending = m.pending[n:]
	return out
}

// ---------------------------------------------------------------------
// WordCount.
// ---------------------------------------------------------------------

// wcSource models fine-grain WordCount: counts is word → occurrences
// over input, which is exactly the served result set.
type wcSource struct {
	sz     sizes
	batch  int
	rng    *rand.Rand
	pool   []kv.Pair // replacement tweet texts, from datagen
	input  map[string]string
	counts map[string]int
	// stream is nil for wc_stream, whose batches rewrite existing
	// tweets only; the Mutate-driven workloads also delete and insert.
	stream *mutateStream
}

func newWCSource(seed int64, sz sizes, corpus []kv.Pair, batch int, mutate bool) *wcSource {
	s := &wcSource{
		sz: sz, batch: batch,
		rng:    rand.New(rand.NewSource(seed + 101)),
		pool:   datagen.Tweets(seed+102, sz.Tweets/2+100, sz.Vocab, sz.Words),
		input:  make(map[string]string, len(corpus)),
		counts: make(map[string]int, sz.Vocab),
	}
	for _, p := range corpus {
		s.input[p.Key] = p.Value
		for _, w := range strings.Fields(p.Value) {
			s.counts[w]++
		}
	}
	if mutate {
		s.stream = &mutateStream{seed: seed + 103, data: corpus, opts: func(round int) datagen.MutateOptions {
			return datagen.MutateOptions{
				ModifyFraction: 0.04, DeleteFraction: 0.01, InsertFraction: 0.01,
				Rewrite: func(rng *rand.Rand, _, _ string) string {
					return s.pool[rng.Intn(len(s.pool))].Value
				},
				NewRecord: func(rng *rand.Rand, i int) kv.Pair {
					return kv.Pair{
						Key:   fmt.Sprintf("n%04d%06d", round, i),
						Value: s.pool[rng.Intn(len(s.pool))].Value,
					}
				},
			}
		}}
	}
	return s
}

func (s *wcSource) next() ([]kv.Delta, probe) {
	var ds []kv.Delta
	if s.stream != nil {
		ds = s.stream.take(s.batch)
	} else {
		ds = s.rewrites(s.batch / 2)
	}
	before := make(map[string]int)
	for _, d := range ds {
		step := 1
		if d.Op == kv.OpDelete {
			step = -1
		}
		for _, w := range strings.Fields(d.Value) {
			if _, ok := before[w]; !ok {
				before[w] = s.counts[w]
			}
			if s.counts[w] += step; s.counts[w] == 0 {
				delete(s.counts, w)
			}
		}
		applyInput(s.input, d)
	}
	return ds, s.pickProbe(ds, before)
}

// rewrites replaces n distinct existing tweets: one '-' and one '+' each.
func (s *wcSource) rewrites(n int) []kv.Delta {
	ds := make([]kv.Delta, 0, 2*n)
	seen := make(map[int]bool, n)
	for len(ds) < 2*n {
		i := s.rng.Intn(s.sz.Tweets)
		key := fmt.Sprintf("t%08d", i)
		old := s.input[key]
		nv := s.pool[s.rng.Intn(len(s.pool))].Value
		if seen[i] || nv == old {
			continue
		}
		seen[i] = true
		ds = append(ds,
			kv.Delta{Key: key, Value: old, Op: kv.OpDelete},
			kv.Delta{Key: key, Value: nv, Op: kv.OpInsert})
	}
	return ds
}

// pickProbe chooses, in record order, a word whose count the batch
// changed, preferring one that still exists so the read returns a value.
func (s *wcSource) pickProbe(ds []kv.Delta, before map[string]int) probe {
	var gone, any string
	for _, d := range ds {
		for _, w := range strings.Fields(d.Value) {
			if any == "" {
				any = w
			}
			c := s.counts[w]
			if c == before[w] {
				continue
			}
			if c > 0 {
				return probe{key: w, found: true, value: strconv.Itoa(c)}
			}
			if gone == "" {
				gone = w
			}
		}
	}
	if gone != "" {
		return probe{key: gone}
	}
	found, value := s.expect(any)
	return probe{key: any, found: found, value: value}
}

func (s *wcSource) final() []kv.Pair { return sortedPairs(s.input) }

func (s *wcSource) keySpace() int { return s.sz.Vocab }

func (s *wcSource) readKey(rng *rand.Rand, zipf *rand.Zipf) string {
	prefix := "w"
	if rng.Intn(5) == 0 {
		prefix = "x"
	}
	return fmt.Sprintf("%s%05d", prefix, zipf.Uint64())
}

func (s *wcSource) groupKeys(ds []kv.Delta) []string {
	var ks []string
	for _, d := range ds {
		ks = append(ks, strings.Fields(d.Value)...)
	}
	return distinctSorted(ks)
}

func (s *wcSource) expect(key string) (bool, string) {
	c := s.counts[key]
	if c == 0 {
		return false, ""
	}
	return true, strconv.Itoa(c)
}

// ---------------------------------------------------------------------
// PageRank.
// ---------------------------------------------------------------------

// prSource rewires vertices of a datagen.Graph. Ranks are checked by
// the final oracle, so the per-read model is presence only.
type prSource struct {
	sz     sizes
	input  map[string]string
	stream *mutateStream
}

func newPRSource(seed int64, sz sizes, graph []kv.Pair) *prSource {
	s := &prSource{sz: sz, input: make(map[string]string, len(graph))}
	for _, p := range graph {
		s.input[p.Key] = p.Value
	}
	// Rewires come as '-'/'+' pairs and RankBatch is even, so a batch
	// boundary never separates a vertex's delete from its insert.
	frac := float64(sz.RankBatch/2) / float64(sz.Vertices)
	s.stream = &mutateStream{seed: seed + 201, data: graph, opts: func(int) datagen.MutateOptions {
		return datagen.MutateOptions{ModifyFraction: frac, Rewrite: datagen.RewireGraphValue(sz.Vertices)}
	}}
	return s
}

func (s *prSource) next() ([]kv.Delta, probe) {
	ds := s.stream.take(s.sz.RankBatch)
	for _, d := range ds {
		applyInput(s.input, d)
	}
	return ds, probe{key: ds[len(ds)-1].Key, found: true}
}

func (s *prSource) final() []kv.Pair { return sortedPairs(s.input) }

func (s *prSource) keySpace() int { return s.sz.Vertices }

func (s *prSource) readKey(rng *rand.Rand, zipf *rand.Zipf) string {
	prefix := "v"
	if rng.Intn(5) == 0 {
		prefix = "z"
	}
	return fmt.Sprintf("%s%07d", prefix, zipf.Uint64())
}

func (s *prSource) groupKeys(ds []kv.Delta) []string {
	var ks []string
	for _, d := range ds {
		ks = append(append(ks, d.Key), strings.Fields(d.Value)...)
	}
	return distinctSorted(ks)
}

func (s *prSource) expect(key string) (bool, string) {
	_, ok := s.input[key]
	return ok, ""
}
