package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strconv"

	"difftrace/internal/core"
	"difftrace/internal/jaccard"
	"difftrace/internal/nlr"
	"difftrace/internal/rank"
)

// recordedDigests holds each workload's report digest at defaultSeed: the
// stream op's report, the sweep's table, and the first daemon-mix jobs'
// stored reports. A run at the default seed fails its output check if it
// produces anything else.
var recordedDigests = map[string]string{
	"stream-loopy": "58a75eb5661409f0b5d512eaebb1fc13a04b164e18886d6a47113cb55f815f13",
	"sweep-lulesh": "5d2d5ff90d4c196d2a4102cb8067ab362c4e97e875680e1c8065faed297361e7",
	"daemon-mix":   "0d69515870bf66a892fce285f4d71469f43e499352fa178a047f265f526f3104",
}

// reportDigest hashes what a report concludes: per level the B-score, the
// suspect ranking with scores, and every object's NLR sequence, plus the
// loop bodies those sequences name. It renders no diffNLR, so computing it
// exercises no layer a workload is meant to leave alone.
func reportDigest(r *core.Report) string {
	h := sha256.New()
	writeReport(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

func writeReport(h hash.Hash, r *core.Report) {
	for _, l := range []*core.Level{r.Threads, r.Processes} {
		fmt.Fprintf(h, "bscore %s\n", strconv.FormatFloat(l.BScore, 'g', -1, 64))
		for _, s := range l.Suspects {
			fmt.Fprintf(h, "suspect %s %s\n", s.Name, strconv.FormatFloat(s.Score, 'g', -1, 64))
		}
		for _, side := range []*core.Analysis{l.Normal, l.Faulty} {
			names := make([]string, 0, len(side.NLR))
			for n := range side.NLR {
				names = append(names, n)
			}
			sort.Slice(names, func(i, j int) bool { return jaccard.LessNatural(names[i], names[j]) })
			for _, n := range names {
				fmt.Fprintf(h, "nlr %s", n)
				for _, tok := range nlr.Tokens(side.NLR[n]) {
					fmt.Fprintf(h, " %s", tok)
				}
				h.Write([]byte("\n"))
			}
		}
	}
	for id := 0; id < r.LoopTable.Len(); id++ {
		fmt.Fprintf(h, "loop %d %s\n", id, r.LoopTable.Describe(id))
	}
}

// tableDigest hashes a sweep: the rendered table, then each row's report
// digest in table order.
func tableDigest(t *rank.Table, rendered string) string {
	h := sha256.New()
	h.Write([]byte(rendered))
	for _, row := range t.Rows {
		fmt.Fprintf(h, "row %s %s\n", row.Spec, row.Attr)
		writeReport(h, row.Report)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRecorded compares a run's digest with the recorded one at the
// default seed.
func (b *bench) checkRecorded(digest string) {
	want := recordedDigests[b.workload]
	if b.seed != defaultSeed || want == "" {
		return
	}
	b.digestChecked = true
	if digest != want {
		b.fail("report digest %s differs from the one recorded at seed %d (%s)", digest, defaultSeed, want)
	}
}
