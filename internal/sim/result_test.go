package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"nowover/internal/metrics"
)

// resultFingerprint renders everything a Result reports: its counters and
// total cost, each digest's count, mean, extremes and quantiles, and a
// hash of the audits and every histogram bucket.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d batched=%d skipped=%d degraded=%d captured=%d peak=%d trough=%d audits=%d cost={%v}",
		res.Steps, res.BatchedOps, res.SkippedOps, res.DegradedSteps, res.CapturedSteps,
		res.PeakSize, res.TroughSize, len(res.Audits), res.TotalCost)
	oc := &res.OpCosts
	for _, d := range []struct {
		name string
		d    *metrics.Digest
	}{{"joinMsgs", &oc.JoinMsgs}, {"joinRounds", &oc.JoinRounds}, {"leaveMsgs", &oc.LeaveMsgs}, {"leaveRounds", &oc.LeaveRounds}} {
		fmt.Fprintf(&b, " %s={n=%d mean=%v min=%v max=%v p50=%v p95=%v}", d.name,
			d.d.N(), d.d.Mean(), d.d.Min(), d.d.Max(), d.d.Quantile(0.5), d.d.Quantile(0.95))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %+v %+v %+v", res.Initial, res.Final, res.Stats, res.Audits)
	for c := range oc.ClassMsgs {
		fmt.Fprintf(h, " %v", &oc.ClassMsgs[c]) // every occupied bucket
	}
	fmt.Fprintf(&b, " hash=%#x", h.Sum64())
	return b.String()
}

// TestContinueResults pins each Continue's Result on one size-waved world
// (splits, merges, audits and per-op cost samples) to
// values captured when every call allocated a fresh Result, and checks
// that ContinueInto on one reused Result, on a second runner of the same
// seed, reports the same. The units' lengths vary, and the 1300-step unit
// compacts its digests, so a Result reused in place must drop every trace
// of the unit before it: a shorter audit list, fewer samples and emptied
// histograms.
func TestContinueResults(t *testing.T) {
	cfg := resizeConfig(true)
	cfg.AuditEvery = 16
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var into Result
	units := []struct {
		steps int
		want  string
	}{
		{1300, "steps=1300 batched=1300 skipped=0 degraded=104 captured=0 peak=384 trough=64 audits=82 cost={msgs=1366272865 rounds=425748 [intra-cluster=28423 inter-cluster=320132848 walk=118913162 randnum=608378196 exchange=12019868 agreement=304189098 cascade=2611270]} joinMsgs={n=659 mean=1.2292752518968133e+06 min=82721 max=5.077327e+06 p50=1.16522352875e+06 p95=2.368371877261904e+06} joinRounds={n=659 mean=327.15174506828527 min=84 max=2827 p50=283.51025641025643 p95=609.3843954248362} leaveMsgs={n=641 mean=867676.2464898597 min=92668 max=6.396736e+06 p50=595509.4888888889 p95=2.3067541780219767e+06} leaveRounds={n=641 mean=327.85491419656785 min=69 max=4468 p50=279.37628384687207 p95=509.2773437499998} hash=0xe710537c6a57ba50"},
		{8, "steps=8 batched=8 skipped=0 degraded=0 captured=0 peak=82 trough=74 audits=1 cost={msgs=2109232 rounds=1015 [intra-cluster=158 inter-cluster=303221 walk=158015 randnum=1085220 exchange=16288 agreement=542610 cascade=3720]} joinMsgs={n=0 mean=NaN min=NaN max=NaN p50=NaN p95=NaN} joinRounds={n=0 mean=NaN min=NaN max=NaN p50=NaN p95=NaN} leaveMsgs={n=8 mean=263654 min=124534 max=379500 p50=259966.5 p95=379500} leaveRounds={n=8 mean=126.875 min=90 max=182 p50=122.5 p95=182} hash=0x1b1c885d8a7cb031"},
		{0, "steps=0 batched=0 skipped=0 degraded=0 captured=0 peak=74 trough=74 audits=0 cost={msgs=0 rounds=0} joinMsgs={n=0 mean=NaN min=NaN max=NaN p50=NaN p95=NaN} joinRounds={n=0 mean=NaN min=NaN max=NaN p50=NaN p95=NaN} leaveMsgs={n=0 mean=NaN min=NaN max=NaN p50=NaN p95=NaN} leaveRounds={n=0 mean=NaN min=NaN max=NaN p50=NaN p95=NaN} hash=0xc7901e418d8a4f2a"},
		{40, "steps=40 batched=40 skipped=0 degraded=0 captured=0 peak=102 trough=69 audits=3 cost={msgs=15734473 rounds=6808 [intra-cluster=886 inter-cluster=1832733 walk=1227674 randnum=8376980 exchange=105160 agreement=4188490 cascade=2550]} joinMsgs={n=34 mean=431267.64705882355 min=152013 max=1.477077e+06 p50=384008.5 p95=852552.7999999999} joinRounds={n=34 mean=176.8235294117647 min=105 max=582 p50=167.5 p95=238.79999999999998} leaveMsgs={n=6 mean=178562.16666666666 min=118761 max=242110 p50=169765 p95=242110} leaveRounds={n=6 mean=132.66666666666666 min=74 max=188 p50=138 p95=188} hash=0xcad7e7ccc81e3ea4"},
		{1, "steps=1 batched=1 skipped=0 degraded=0 captured=0 peak=102 trough=101 audits=1 cost={msgs=399062 rounds=209 [intra-cluster=21 inter-cluster=63502 walk=33585 randnum=198744 exchange=3030 agreement=99372 cascade=808]} joinMsgs={n=0 mean=NaN min=NaN max=NaN p50=NaN p95=NaN} joinRounds={n=0 mean=NaN min=NaN max=NaN p50=NaN p95=NaN} leaveMsgs={n=1 mean=399062 min=399062 max=399062 p50=399062 p95=399062} leaveRounds={n=1 mean=209 min=209 max=209 p50=209 p95=209} hash=0x7f9236e4b2ad43e3"},
	}
	for i, u := range units {
		res, err := fresh.Continue(nil, u.steps)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultFingerprint(res); got != u.want {
			t.Errorf("Continue unit %d (%d steps):\n got %s\nwant %s", i, u.steps, got, u.want)
		}
		if err := reused.ContinueInto(&into, nil, u.steps); err != nil {
			t.Fatal(err)
		}
		if got := resultFingerprint(&into); got != u.want {
			t.Errorf("ContinueInto unit %d (%d steps):\n got %s\nwant %s", i, u.steps, got, u.want)
		}
	}
}

// TestResultReuseContract pins what Run/Continue and RunInto/ContinueInto
// promise about storage: a Result from Continue is untouched by the next
// call, while a struct copy of a Result refilled by ContinueInto shares
// its audit array and digests, so the next ContinueInto rewrites it.
func TestResultReuseContract(t *testing.T) {
	cfg := resizeConfig(true)
	cfg.AuditEvery = 1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Continue(nil, 40)
	if err != nil {
		t.Fatal(err)
	}
	before := resultFingerprint(first)
	if _, err := r.Continue(nil, 40); err != nil {
		t.Fatal(err)
	}
	if after := resultFingerprint(first); after != before {
		t.Errorf("a later Continue changed an earlier Result:\n got %s\nwant %s", after, before)
	}

	var res Result
	if err := r.ContinueInto(&res, nil, 40); err != nil {
		t.Fatal(err)
	}
	saved := res
	audit0 := saved.Audits[0]
	if err := r.ContinueInto(&res, nil, 40); err != nil {
		t.Fatal(err)
	}
	if saved.Audits[0] != res.Audits[0] || saved.Audits[0] == audit0 {
		t.Errorf("a struct copy's Audits were not rewritten by the next ContinueInto: copy %+v, refilled %+v, before %+v",
			saved.Audits[0], res.Audits[0], audit0)
	}
}
