package diffnlr

// FuzzFindDivergence feeds two mutated PLOT1 blobs through the real
// ingest path, summarizes both sides against one shared loop table (as
// core does), and checks the divergence contract: the pass never panics,
// a nil result means the raw streams are identical, and a non-nil
// result's EventIndex never exceeds the first differing raw event — the
// expanded streams are byte-identical before it.

import (
	"bytes"
	"testing"

	"difftrace/internal/nlr"
	"difftrace/internal/parlot"
	"difftrace/internal/synth"
	"difftrace/internal/trace"
)

// plot1Seed encodes one small synthetic trace as PLOT1 bytes.
func plot1Seed(cfg synth.Config) []byte {
	set := trace.NewTraceSet()
	synth.Generate(set, trace.TID(0, 0), cfg)
	var buf bytes.Buffer
	if err := parlot.WriteSetBinary(&buf, set); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzFindDivergence(f *testing.F) {
	loop8 := synth.Config{Prologue: 2, Loops: []synth.LoopSpec{{Body: 2, Iterations: 8}}, Epilogue: 1}
	loop5 := synth.Config{Prologue: 2, Loops: []synth.LoopSpec{{Body: 2, Iterations: 5}}, Epilogue: 1}
	nested := synth.Config{Loops: []synth.LoopSpec{{Body: 1, Iterations: 4,
		Nested: &synth.LoopSpec{Body: 2, Iterations: 3}}}}
	truncated := loop8
	truncated.TruncateAfter = 7
	noisy := loop8
	noisy.NoiseRate, noisy.NoisePool, noisy.Seed = 0.3, 3, 11

	f.Add(plot1Seed(loop8), plot1Seed(loop8))     // identical
	f.Add(plot1Seed(loop8), plot1Seed(loop5))     // loop-count fault
	f.Add(plot1Seed(loop8), plot1Seed(truncated)) // hang/truncation
	f.Add(plot1Seed(loop8), plot1Seed(nested))    // structural mutation
	f.Add(plot1Seed(noisy), plot1Seed(loop8))     // irregular vs regular
	f.Add([]byte("PLOT1"), []byte{})              // corrupt inputs
	f.Fuzz(func(t *testing.T, a, b []byte) {
		na, ok := decodeFirstStream(a)
		if !ok {
			return
		}
		fa, ok := decodeFirstStream(b)
		if !ok {
			return
		}
		table := nlr.NewTable()
		en := nlr.Summarize(na, nlr.DefaultK, table)
		ef := nlr.Summarize(fa, nlr.DefaultK, table)
		d := FindDivergence(en, ef) // must not panic on any alignment
		checkDivergenceInvariants(t, d, nlr.Expand(en), nlr.Expand(ef))
	})
}

// decodeFirstStream leniently parses PLOT1 bytes and returns the
// naturally-first trace's call-name stream. Undecodable or empty inputs
// are skipped — the fuzzer's job is the alignment walk, the readers have
// their own corpora.
func decodeFirstStream(raw []byte) ([]string, bool) {
	reg := trace.NewRegistry()
	set, _, err := parlot.ReadSetBinaryContext(nil, bytes.NewReader(raw), reg, trace.ReadOptions{Mode: trace.Lenient})
	if err != nil || set == nil {
		return nil, false
	}
	ids := set.IDs()
	if len(ids) == 0 {
		return nil, false
	}
	return set.Get(ids[0]).Names(reg), true
}
