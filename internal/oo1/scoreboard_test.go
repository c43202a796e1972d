package oo1

import (
	"fmt"
	"strings"
	"testing"

	"gom/internal/core"
	"gom/internal/metrics"
	"gom/internal/swizzle"
)

// scoreStream runs a fixed OO1 operation stream with a scoreboard
// installed in a 6-frame buffer (so references are displaced in use):
// 20 Lookups and a Traversal(3) under LDS, a Commit, then a switch to LIS
// and the same again. It returns the scoreboard after each phase, one
// row per context rendered as
// "context type strategy deref/fault/swizzle/reswizzle/displaced_in_use".
func scoreStream(t *testing.T) [2][]string {
	t.Helper()
	db, err := Generate(smallCfg(400))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	c, err := NewClient(db, core.Options{Metrics: reg, PageBufferPages: 6}, 9)
	if err != nil {
		t.Fatal(err)
	}
	var out [2][]string
	for phase, strat := range []swizzle.Strategy{swizzle.LDS, swizzle.LIS} {
		c.Begin(swizzle.NewSpec("s", strat))
		if err := c.LookupN(20); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Traversal(3); err != nil {
			t.Fatal(err)
		}
		if err := c.OM.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, r := range reg.ScoreRows() {
			out[phase] = append(out[phase], fmt.Sprintf("%s %s %s %d/%d/%d/%d/%d", r.Context, r.Type, r.Strategy,
				r.Count(metrics.ScoreDeref), r.Count(metrics.ScoreFault), r.Count(metrics.ScoreSwizzle),
				r.Count(metrics.ScoreReswizzle), r.Count(metrics.ScoreDisplacedInUse)))
		}
	}
	return out
}

// TestScoreStreamRows pins the scoreboard of a fixed OO1 stream, counts
// and labels, row by row: every event lands in its context's row, and the
// spec switch relabels every row, the program variables' included.
func TestScoreStreamRows(t *testing.T) {
	want := [2][]string{{
		"$__chunk __LLChunk[Part] LDS 21/0/0/0/0",
		"$__dir __LLDir[Part] LDS 21/0/0/0/0",
		"$conns-extent __LargeList[Connection] LDS 0/1/1/0/0",
		"$lookup Part LDS 60/0/0/0/0",
		"$parts-extent __LargeList[Part] LDS 42/1/1/0/0",
		"$tconn Connection LDS 39/0/0/0/0",
		"$tpart Part LDS 165/0/0/0/0",
		"$troot Part LDS 7/0/0/0/0",
		"Connection.from Part LDS 0/0/0/0/0",
		"Connection.to Part LDS 39/11/21/0/0",
		"Part.connTo Connection LDS 39/21/21/0/0",
		"__LLChunk[Connection].elems Connection LDS 0/0/0/0/0",
		"__LLChunk[Part].elems Part LDS 21/20/20/0/20",
		"__LLDir[Connection].chunks __LLChunk[Connection] LDS 0/0/0/0/0",
		"__LLDir[Part].chunks __LLChunk[Part] LDS 21/1/1/0/1",
		"__LargeList[Connection].dirs __LLDir[Connection] LDS 0/0/0/0/0",
		"__LargeList[Part].dirs __LLDir[Part] LDS 21/1/1/0/1",
	}, {
		"$__chunk __LLChunk[Part] LIS 42/2/0/0/0",
		"$__dir __LLDir[Part] LIS 42/2/0/0/0",
		"$conns-extent __LargeList[Connection] LIS 0/1/2/0/0",
		"$lookup Part LIS 120/18/0/0/0",
		"$parts-extent __LargeList[Part] LIS 84/3/2/0/0",
		"$tconn Connection LIS 78/27/0/0/0",
		"$tpart Part LIS 330/16/0/0/0",
		"$troot Part LIS 14/1/0/0/0",
		"Connection.from Part LIS 0/0/0/0/0",
		"Connection.to Part LIS 78/11/48/0/21",
		"Part.connTo Connection LIS 78/21/48/0/25",
		"__LLChunk[Connection].elems Connection LIS 0/0/0/0/0",
		"__LLChunk[Part].elems Part LIS 42/20/40/0/40",
		"__LLDir[Connection].chunks __LLChunk[Connection] LIS 0/0/0/0/0",
		"__LLDir[Part].chunks __LLChunk[Part] LIS 42/1/3/0/3",
		"__LargeList[Connection].dirs __LLDir[Connection] LIS 0/0/0/0/0",
		"__LargeList[Part].dirs __LLDir[Part] LIS 42/1/3/0/3",
	}}
	got := scoreStream(t)
	for phase := range want {
		if len(got[phase]) != len(want[phase]) {
			t.Errorf("phase %d: %d scoreboard rows, want %d:\n%s", phase, len(got[phase]), len(want[phase]), strings.Join(got[phase], "\n"))
			continue
		}
		for i := range want[phase] {
			if got[phase][i] != want[phase][i] {
				t.Errorf("phase %d row %d = %q, want %q", phase, i, got[phase][i], want[phase][i])
			}
		}
	}
}
