package main

import (
	"fmt"
	"math"

	"repro/internal/exp"
)

// The correctness checks are pure functions of the values they compare, so
// the tests can feed each one a perturbed result and see it fail.

// count is one expected-work check: a counter the program reports against
// the value derived from the round's job list.
type count struct {
	what      string
	got, want int64
}

func countProblems(cs ...count) []string {
	var out []string
	for _, c := range cs {
		if c.got != c.want {
			out = append(out, fmt.Sprintf("%s: %d, job list gives %d", c.what, c.got, c.want))
		}
	}
	return out
}

// checkEqual requires two measurements of the same thing to agree bit for
// bit.
func checkEqual(what string, got, want float64) []string {
	if got != want || math.IsNaN(got) {
		return []string{fmt.Sprintf("%s: %v, independent run gives %v", what, got, want)}
	}
	return nil
}

// checkExit requires a binary to return its O0 build's exit value.
func checkExit(what string, got, want int64) []string {
	if got != want {
		return []string{fmt.Sprintf("%s: exit value %d, O0 build returns %d", what, got, want)}
	}
	return nil
}

// checkFit requires a least-squares fit with an intercept to leave a
// training residual sum of squares no larger than the training mean's.
func checkFit(what string, sse float64, ys []float64) []string {
	var mean, sst float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	for _, y := range ys {
		sst += (y - mean) * (y - mean)
	}
	if !(sse >= 0 && sse <= sst*(1+1e-9)) {
		return []string{fmt.Sprintf("%s: linear training SSE %v exceeds the mean's %v", what, sse, sst)}
	}
	return nil
}

// checkSpeedups requires want Figure 7 rows, each speedup finite and
// positive.
func checkSpeedups(rows []exp.SpeedupRow, want int) []string {
	var out []string
	if len(rows) != want {
		out = append(out, fmt.Sprintf("figure 7: %d rows, want %d", len(rows), want))
	}
	for _, r := range rows {
		for _, v := range []float64{r.PredictedGA, r.ActualGA, r.ActualO3} {
			if !finitePositive(v) {
				out = append(out, fmt.Sprintf("figure 7 %s/%s: speedup %v", r.Program, r.Config, v))
			}
		}
	}
	return out
}

// checkWithin requires an estimate within a relative tolerance of a
// reference.
func checkWithin(what string, est, ref, tol float64) []string {
	if !finitePositive(est) || math.Abs(est-ref) > tol*math.Abs(ref) {
		return []string{fmt.Sprintf("%s: %v is not within %.0f%% of %v", what, est, 100*tol, ref)}
	}
	return nil
}
