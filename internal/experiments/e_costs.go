package experiments

import (
	"math"

	"nowover/internal/core"
	"nowover/internal/metrics"
	"nowover/internal/sim"
	"nowover/internal/xrand"
)

// midWorld bootstraps a world at n = N/2 (mid-regime) with the given tau,
// at the scale's seed and cascade mode.
func midWorld(s Scale, n int, tau float64, mutate func(*core.Config)) (*core.World, error) {
	cfg := s.coreConfig(n)
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := core.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	byzBudget := int(tau * float64(n/2))
	if err := w.Bootstrap(n/2, func(slot int) bool { return slot < byzBudget }); err != nil {
		return nil, err
	}
	return w, nil
}

// E4RandClCost measures the randCl primitive: the paper charges
// O(log^5 N) messages, O(log^4 N) rounds and O(log^3 N) visited clusters
// per biased walk. The polylog exponents are fitted from the N sweep.
func E4RandClCost(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "randCl (biased CTRW) cost per invocation",
		Claim: "section 3.1: randCl costs O(log^5 N) msgs, O(log^4 N) rounds, visiting O(log^3 N) clusters",
		Columns: []string{"N", "walks", "meanMsgs", "meanRounds", "meanHops",
			"msgs/log^5N", "rounds/log^4N"},
	}
	if err := t.RunCells(s, len(s.Ns), func(i int, frag *Table) error {
		n := s.Ns[i]
		w, err := midWorld(s, n, 0.15, nil)
		if err != nil {
			return err
		}
		led := w.Ledger()
		r := xrand.New(s.Seed ^ 0xE4)
		var msgs, rounds, hops metrics.Welford
		for i := 0; i < s.Walks; i++ {
			start, _ := w.RandomCluster(r)
			snap := led.Snapshot()
			out, err := w.Walker().Biased(led, w.Rng(), start)
			if err != nil {
				return err
			}
			cost := led.Since(snap)
			msgs.Add(float64(cost.Messages))
			rounds.Add(float64(cost.Rounds))
			hops.Add(float64(out.Hops))
		}
		l := math.Log2(float64(n))
		frag.AddRow(n, s.Walks, msgs.Mean(), rounds.Mean(), hops.Mean(),
			msgs.Mean()/math.Pow(l, 5), rounds.Mean()/math.Pow(l, 4))
		frag.AddAux(float64(n), msgs.Mean(), rounds.Mean(), hops.Mean())
		return nil
	}); err != nil {
		return nil, err
	}
	xs, ys := t.auxColumns(len(s.Ns), 4)
	if len(xs) >= 2 {
		t.Notes = append(t.Notes,
			noteFit("messages", xs, ys[0], 5),
			noteFit("rounds", xs, ys[1], 4),
			noteFit("hops", xs, ys[2], 3),
		)
	}
	return t, nil
}

// auxColumns unpacks per-cell Aux vectors of the shape (x, y1..yk) laid
// down by frag.AddAux into an x column plus k y columns for cross-cell
// fits. Cells lacking the expected width (impossible unless an old
// journal is replayed against newer code) are dropped from the fit rather
// than read out of bounds.
func (t *Table) auxColumns(count, width int) (xs []float64, ys [][]float64) {
	ys = make([][]float64, width-1)
	for i := 0; i < count; i++ {
		aux := t.CellAux(i)
		if len(aux) != width {
			continue
		}
		xs = append(xs, aux[0])
		for k := 1; k < width; k++ {
			ys[k-1] = append(ys[k-1], aux[k])
		}
	}
	return xs, ys
}

func noteFit(what string, xs, ys []float64, paperExp float64) string {
	fit := metrics.FitPolylog(xs, ys)
	return formatFitNote(what, fit, paperExp)
}

func formatFitNote(what string, fit metrics.LinearFit, paperExp float64) string {
	return what + ": fitted polylog exponent " + formatFloat(fit.Slope) +
		" (R2 " + formatFloat(fit.R2) + ") vs paper bound exponent " + formatFloat(paperExp) +
		"; exponent fits over a narrow N range are indicative only (the per-N ratio columns are the sharper check)"
}

// E5ExchangeCost measures the exchange primitive: O(log^6 N) messages and
// O(log^4 N) rounds per full-cluster shuffle.
func E5ExchangeCost(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "exchange (full-cluster shuffle) cost per invocation",
		Claim: "section 3.1: exchange costs O(log^6 N) msgs and O(log^4 N) rounds",
		Columns: []string{"N", "exchanges", "meanMsgs", "meanRounds",
			"msgs/log^6N", "rounds/log^4N"},
	}
	trials := 10 * s.Trials
	if err := t.RunCells(s, len(s.Ns), func(i int, frag *Table) error {
		n := s.Ns[i]
		w, err := midWorld(s, n, 0.15, nil)
		if err != nil {
			return err
		}
		led := w.Ledger()
		r := xrand.New(s.Seed ^ 0xE5)
		var msgs, rounds metrics.Welford
		for i := 0; i < trials; i++ {
			c, _ := w.RandomCluster(r)
			snap := led.Snapshot()
			if err := w.ForceExchange(c); err != nil {
				return err
			}
			cost := led.Since(snap)
			msgs.Add(float64(cost.Messages))
			rounds.Add(float64(cost.Rounds))
		}
		l := math.Log2(float64(n))
		frag.AddRow(n, trials, msgs.Mean(), rounds.Mean(),
			msgs.Mean()/math.Pow(l, 6), rounds.Mean()/math.Pow(l, 4))
		frag.AddAux(float64(n), msgs.Mean(), rounds.Mean())
		return nil
	}); err != nil {
		return nil, err
	}
	xs, ys := t.auxColumns(len(s.Ns), 3)
	if len(xs) >= 2 {
		t.Notes = append(t.Notes,
			noteFit("messages", xs, ys[0], 6),
			noteFit("rounds", xs, ys[1], 4))
	}
	return t, nil
}

// E6OperationCost measures the maintenance operations end to end: join
// and leave (with their induced exchanges, splits and merges) must stay
// polylog(N) per the abstract and Figure 2.
func E6OperationCost(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Join/Leave end-to-end cost (including induced split/merge)",
		Claim: "abstract + Figure 2: every maintenance operation costs polylog(N) messages",
		Columns: []string{"N", "ops", "join:mean", "join:p95", "leave:mean",
			"leave:p95", "joinRounds", "leaveRounds"},
	}
	if err := t.RunCells(s, len(s.Ns), func(i int, frag *Table) error {
		n := s.Ns[i]
		cfg := sim.Config{
			Core:          s.coreConfig(n),
			InitialSize:   n / 2,
			Tau:           0.15,
			Steps:         int(s.OpsFactor * float64(n) / 2),
			Seed:          s.Seed,
			SampleOpCosts: true,
		}
		runner, err := sim.New(cfg)
		if err != nil {
			return err
		}
		res, err := runner.Run()
		if err != nil {
			return err
		}
		frag.AddRow(n, res.Steps,
			res.OpCosts.JoinMsgs.Mean(), res.OpCosts.JoinMsgs.Quantile(0.95),
			res.OpCosts.LeaveMsgs.Mean(), res.OpCosts.LeaveMsgs.Quantile(0.95),
			res.OpCosts.JoinRounds.Mean(), res.OpCosts.LeaveRounds.Mean())
		frag.AddAux(float64(n), res.OpCosts.JoinMsgs.Mean(), res.OpCosts.LeaveMsgs.Mean())
		return nil
	}); err != nil {
		return nil, err
	}
	xs, ys := t.auxColumns(len(s.Ns), 3)
	if len(xs) >= 2 {
		joinFit := metrics.FitPolylog(xs, ys[0])
		leaveFit := metrics.FitPolylog(xs, ys[1])
		t.Notes = append(t.Notes,
			"join polylog exponent "+formatFloat(joinFit.Slope)+" (R2 "+formatFloat(joinFit.R2)+"); join ~ exchange cost + insertion, so ~log^6-7 N is expected",
			"leave polylog exponent "+formatFloat(leaveFit.Slope)+" (R2 "+formatFloat(leaveFit.R2)+"); leave cascades ~|C| extra exchanges (~log^7-8 N) — still polylog, the paper's claim",
			"over a 4x range of N, polylog growth with a high exponent is numerically indistinguishable from a small power of n; the wide-range -full sweep separates them")
	}
	return t, nil
}

// E7WalkUniformity measures the X/Y decomposition of section 4: the
// CTRW endpoint distribution's total-variation distance from the target
// (|C|/n) as the walk duration grows.
func E7WalkUniformity(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "randCl endpoint distribution vs walk duration",
		Claim: "section 4: with duration past the mixing time, the CTRW endpoint distribution is within O(n^-c) of (|C|/n); residual bias is absorbed by the X/Y decomposition",
		Columns: []string{"durationFactor", "N", "walks", "TV(sizeProp)",
			"TV(perNodeUniform)", "meanHops"},
	}
	n := s.Ns[len(s.Ns)-1]
	factors := []float64{0.0625, 0.125, 0.25, 0.5, 1, 2}
	if err := t.RunCells(s, len(factors), func(i int, frag *Table) error {
		factor := factors[i]
		w, err := midWorld(s, n, 0, func(c *core.Config) {
			c.WalkDurationFactor = factor
		})
		if err != nil {
			return err
		}
		clusters := w.Clusters()
		index := make(map[int]int, len(clusters))
		for i, c := range clusters {
			index[int(c)] = i
		}
		counts := make([]float64, len(clusters))
		sizes := make([]float64, len(clusters))
		for i, c := range clusters {
			sizes[i] = float64(w.Size(c))
		}
		var hops metrics.Welford
		// All walks start from ONE fixed cluster: a uniform start would
		// make even a zero-hop walk look perfectly mixed.
		start := clusters[0]
		for i := 0; i < s.Walks; i++ {
			out, err := w.Walker().Biased(w.Ledger(), w.Rng(), start)
			if err != nil {
				return err
			}
			if j, ok := index[int(out.End)]; ok {
				counts[j]++
			}
			hops.Add(float64(out.Hops))
		}
		perNode := make([]float64, len(clusters))
		uniform := make([]float64, len(clusters))
		for i := range perNode {
			if sizes[i] > 0 {
				perNode[i] = counts[i] / sizes[i]
			}
			uniform[i] = 1
		}
		frag.AddRow(factor, n, s.Walks,
			metrics.TVDistance(counts, sizes),
			metrics.TVDistance(perNode, uniform),
			hops.Mean())
		return nil
	}); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"all walks start at one fixed cluster; TV falls to the sampling-noise floor (~0.5*sqrt(#C/walks)) once the duration passes the mixing time and plateaus after",
		"clusters are size-homogeneous right after bootstrap, so the two TV columns differ only under churn")
	return t, nil
}
