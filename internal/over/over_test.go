package over

import (
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

func params() Params {
	return Params{TargetDegree: 6, DegreeCap: 18, DegreeFloor: 3, Repair: true}
}

func bootstrapped(t *testing.T, n int, p float64) (*Overlay, []ids.ClusterID) {
	t.Helper()
	o, err := New(params())
	if err != nil {
		t.Fatal(err)
	}
	var vs []ids.ClusterID
	for i := 0; i < n; i++ {
		vs = append(vs, ids.ClusterID(i))
	}
	if _, err := o.Bootstrap(xrand.New(1), vs, p); err != nil {
		t.Fatal(err)
	}
	return o, vs
}

// uniformPicker returns a Picker drawing uniformly from live vertices —
// the idealized stand-in for the CTRW-based picker NOW provides.
func uniformPicker(o *Overlay, r *xrand.Rand) Picker {
	return func(ids.ClusterID) (ids.ClusterID, bool) {
		vs := o.Vertices()
		if len(vs) == 0 {
			return 0, false
		}
		return vs[r.Intn(len(vs))], true
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{TargetDegree: 0, DegreeCap: 5, DegreeFloor: 0},
		{TargetDegree: 5, DegreeCap: 4, DegreeFloor: 2},
		{TargetDegree: 5, DegreeCap: 10, DegreeFloor: 6},
		{TargetDegree: 5, DegreeCap: 10, DegreeFloor: -1},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("accepted invalid %+v", p)
		}
	}
}

func TestBootstrapConnectivityPatch(t *testing.T) {
	// p=0 forces a totally disconnected ER draw; the patch chain must
	// connect it.
	o, _ := bootstrapped(t, 10, 0)
	if !o.computeShape().connected {
		t.Fatal("bootstrap left overlay disconnected")
	}
	if o.NumEdges() != 9 {
		t.Errorf("patch edges = %d, want 9", o.NumEdges())
	}
	// Bootstrap seeds the shape cache from its patch scan and a degree
	// scan, with no traversal of its own: whether the draw needed many
	// patches, a few or none, the cache is current and equals a fresh
	// traversal's.
	for _, tc := range []struct {
		n int
		p float64
	}{{0, 0.5}, {1, 0.5}, {10, 0}, {60, 1.0 / 59}, {100, 6.0 / 99}, {12, 1}} {
		o, _ := bootstrapped(t, tc.n, tc.p)
		if !o.shape.valid || o.shape.at != o.mutations {
			t.Fatalf("n=%d p=%.3f: Bootstrap left the shape cache stale", tc.n, tc.p)
		}
		if fresh := o.computeShape(); fresh != o.shape {
			t.Fatalf("n=%d p=%.3f: cached shape %+v, fresh %+v", tc.n, tc.p, o.shape, fresh)
		}
	}
}

func TestBootstrapDensity(t *testing.T) {
	o, _ := bootstrapped(t, 100, 6.0/99)
	mean := o.Snapshot().MeanDegree()
	if mean < 4 || mean > 8 {
		t.Errorf("mean degree %.2f, want ~6", mean)
	}
	if !o.Connected() {
		t.Error("overlay disconnected at target density")
	}
}

func TestBootstrapTwiceFails(t *testing.T) {
	o, vs := bootstrapped(t, 10, 0.5)
	if _, err := o.Bootstrap(xrand.New(2), vs, 0.5); err == nil {
		t.Error("second bootstrap accepted")
	}
}

func TestAddWiresToTarget(t *testing.T) {
	o, _ := bootstrapped(t, 50, 6.0/49)
	r := xrand.New(3)
	var led metrics.Ledger
	c := ids.ClusterID(100)
	added, err := o.Add(&led, c, uniformPicker(o, r), 100)
	if err != nil {
		t.Fatal(err)
	}
	if added != o.Params().TargetDegree {
		t.Errorf("added %d edges, want %d", added, o.Params().TargetDegree)
	}
	if o.Degree(c) != added {
		t.Errorf("degree %d != added %d", o.Degree(c), added)
	}
	if led.MessagesBy(metrics.ClassInterCluster) != int64(added) {
		t.Errorf("charged %d, want %d", led.MessagesBy(metrics.ClassInterCluster), added)
	}
}

func TestAddDuplicateVertexFails(t *testing.T) {
	o, vs := bootstrapped(t, 10, 0.5)
	var led metrics.Ledger
	if _, err := o.Add(&led, vs[0], uniformPicker(o, xrand.New(4)), 10); err == nil {
		t.Error("Add of existing vertex accepted")
	}
}

func TestAddRespectsCap(t *testing.T) {
	// Tiny overlay where everyone is saturated: Add must stop short
	// rather than violate the cap.
	o, err := New(Params{TargetDegree: 2, DegreeCap: 2, DegreeFloor: 1, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	vs := []ids.ClusterID{0, 1, 2}
	if _, err := o.Bootstrap(xrand.New(5), vs, 1); err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	_, err = o.Add(&led, 9, uniformPicker(o, xrand.New(6)), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range o.Vertices() {
		if o.Degree(v) > o.Params().DegreeCap {
			t.Errorf("vertex %v degree %d exceeds cap", v, o.Degree(v))
		}
	}
}

func TestRemoveRepairsFloor(t *testing.T) {
	o, _ := bootstrapped(t, 60, 6.0/59)
	r := xrand.New(7)
	var led metrics.Ledger
	// Remove a batch of vertices; all survivors must stay at or above the
	// floor (repair) and below the cap.
	vs := o.Vertices()
	for _, c := range vs[:20] {
		if _, err := o.Remove(&led, c, uniformPicker(o, r), 200); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range o.Vertices() {
		if d := o.Degree(v); d < o.Params().DegreeFloor {
			t.Errorf("vertex %v degree %d below floor %d after repairs", v, d, o.Params().DegreeFloor)
		}
		if d := o.Degree(v); d > o.Params().DegreeCap {
			t.Errorf("vertex %v degree %d above cap", v, d)
		}
	}
}

func TestRemoveWithoutRepair(t *testing.T) {
	p := params()
	p.Repair = false
	o, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	vs := []ids.ClusterID{0, 1, 2, 3}
	if _, err := o.Bootstrap(xrand.New(8), vs, 1); err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	repaired, err := o.Remove(&led, 0, uniformPicker(o, xrand.New(9)), 50)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 0 {
		t.Errorf("repair ran with Repair=false: %d edges", repaired)
	}
	if o.Degree(1) != 2 {
		t.Errorf("degree after unrepaired removal = %d, want 2", o.Degree(1))
	}
}

func TestRemoveMissingVertexFails(t *testing.T) {
	o, _ := bootstrapped(t, 5, 1)
	var led metrics.Ledger
	if _, err := o.Remove(&led, 99, uniformPicker(o, xrand.New(10)), 10); err == nil {
		t.Error("Remove of missing vertex accepted")
	}
}

func TestChurnMaintainsExpansion(t *testing.T) {
	// The OVER claim in miniature: after hundreds of random
	// additions/removals, the overlay stays connected with a healthy
	// spectral gap and bounded degrees.
	o, _ := bootstrapped(t, 80, 6.0/79)
	r := xrand.New(11)
	var led metrics.Ledger
	next := 1000
	for step := 0; step < 400; step++ {
		vs := o.Vertices()
		if r.Bool(0.5) && len(vs) > 40 {
			victim := vs[r.Intn(len(vs))]
			if _, err := o.Remove(&led, victim, uniformPicker(o, r), 100); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := o.Add(&led, ids.ClusterID(next), uniformPicker(o, r), 100); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	h := o.CheckHealth(r, 100, 50)
	if !h.Connected {
		t.Fatal("overlay disconnected after churn")
	}
	if h.MaxDegree > o.Params().DegreeCap {
		t.Errorf("max degree %d exceeds cap %d", h.MaxDegree, o.Params().DegreeCap)
	}
	if h.SpectralGap < 0.05 {
		t.Errorf("spectral gap %.4f collapsed", h.SpectralGap)
	}
	if h.IsoEstimate <= 0 {
		t.Errorf("isoperimetric estimate %v", h.IsoEstimate)
	}
}

func TestCheckHealthSmallExact(t *testing.T) {
	o, _ := bootstrapped(t, 8, 1) // K8
	h := o.CheckHealth(xrand.New(12), 50, 20)
	if h.IsoExact != 4 { // I(K8) = 4*4/4 = 4 at balanced cut
		t.Errorf("exact iso = %v, want 4", h.IsoExact)
	}
	if h.MinDegree != 7 || h.MaxDegree != 7 {
		t.Errorf("degrees = [%d,%d], want [7,7]", h.MinDegree, h.MaxDegree)
	}
}
