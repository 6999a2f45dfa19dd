package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"strconv"
	"time"

	i2mr "i2mapreduce"
	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/kv"
)

// maxMeanRelErr bounds how far pr_refresh's incrementally maintained
// ranks may sit from a fresh run on the final graph. CPC with filter
// threshold 0.01 withholds changes below 0.01 per vertex per refresh;
// the largest mean relative error measured over ten seeds of the full
// scale was 1.4e-3 (README.md), and the bound leaves 3× headroom.
const maxMeanRelErr = 4.5e-3

// oracleRuns is how many fresh re-computations a traced run times (the
// median is incr.recompute_s / core.recompute_s); an untraced run needs
// only the one it checks against.
const oracleRuns = 3

func hashPairs(ps []kv.Pair) string {
	h := fnv.New64a()
	for _, p := range ps {
		h.Write([]byte(p.Key))
		h.Write([]byte{0})
		h.Write([]byte(p.Value))
		h.Write([]byte{1})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// oracle checks the refreshed system against re-computation from
// scratch on the final input: a fresh System in its own directory,
// given only that input. Each comparison is one attempted operation.
func (res *runResult) oracle(p *phase) error {
	final := p.src.final()
	res.InputHash = hashPairs(final)
	runs := 1
	if p.cfg.trace {
		runs = oracleRuns
	}
	dir := p.r.env.dir + "-oracle"
	for i := 0; i < runs; i++ {
		sys, err := i2mr.New(i2mr.Options{WorkDir: filepath.Join(dir, strconv.Itoa(i))})
		if err != nil {
			return err
		}
		if err := sys.WritePairs("final", final); err != nil {
			return err
		}
		if p.r.itr != nil {
			err = res.oraclePageRank(p, sys, i == 0)
		} else {
			err = res.oracleWordCount(p, sys, final, i == 0)
		}
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	return nil
}

func (res *runResult) oracleWordCount(p *phase, sys *i2mr.System, final []kv.Pair, check bool) error {
	fresh, err := sys.NewOneStep(apps.FineGrainWordCountJob("wc"))
	if err != nil {
		return err
	}
	defer fresh.Close()
	t := time.Now()
	if _, err := fresh.RunInitial("final", "wc-oracle"); err != nil {
		return err
	}
	res.recompute.addDur(time.Since(t))
	if !check {
		return nil
	}
	want, err := fresh.Outputs()
	if err != nil {
		return err
	}
	got, err := p.r.one.Outputs()
	if err != nil {
		return err
	}
	res.ResultHash = hashPairs(got)

	res.Attempted++
	if len(got) != len(want) {
		res.fail("oracle: %d output pairs after the refreshes, %d from re-computation", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				res.fail("oracle: output %d is %v after the refreshes, %v from re-computation", i, got[i], want[i])
				break
			}
		}
	}
	res.Attempted++
	offline := apps.OfflineWordCount(final)
	if len(got) != len(offline) {
		res.fail("oracle: %d words served, %d counted offline", len(got), len(offline))
	} else {
		for _, o := range got {
			if o.Value != strconv.Itoa(offline[o.Key]) {
				res.fail("oracle: %q served as %s, counted offline as %d", o.Key, o.Value, offline[o.Key])
				break
			}
		}
	}
	return nil
}

func (res *runResult) oraclePageRank(p *phase, sys *i2mr.System, check bool) error {
	fresh, err := sys.NewIncremental(apps.PageRankSpec("pr", apps.DefaultDamping), pageRankConfig)
	if err != nil {
		return err
	}
	defer fresh.Close()
	t := time.Now()
	if _, err := fresh.RunInitial("final"); err != nil {
		return err
	}
	res.recompute.addDur(time.Since(t))
	if !check {
		return nil
	}
	want, got := fresh.State(), p.r.itr.State()
	res.ResultHash = hashPairs(sortedPairs(got))

	res.Attempted++
	if len(got) != len(want) {
		res.fail("oracle: %d ranks after the refreshes, %d from re-computation", len(got), len(want))
		return nil
	}
	var sum float64
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			res.fail("oracle: vertex %q has no rank after the refreshes", k)
			return nil
		}
		wf, err1 := strconv.ParseFloat(w, 64)
		gf, err2 := strconv.ParseFloat(g, 64)
		if err1 != nil || err2 != nil || wf == 0 {
			res.fail("oracle: vertex %q: ranks %q and %q do not compare", k, g, w)
			return nil
		}
		sum += math.Abs(gf-wf) / math.Abs(wf)
	}
	res.meanRelErr = sum / float64(len(want))
	if res.meanRelErr > maxMeanRelErr {
		res.fail("oracle: mean relative rank error %.3g exceeds %.3g", res.meanRelErr, maxMeanRelErr)
	}
	return nil
}
