package main

import (
	"fmt"
	"math"

	"kamel/internal/geo"
	"kamel/internal/metrics"
)

// checkOutput verifies one imputation against properties every correct
// output has, whatever the model learned:
//   - every input point appears, unchanged and in order;
//   - timestamps never decrease, and each inserted point's timestamp lies
//     within the times of the input points around it;
//   - the reported segment count equals the benchmark's own count of input
//     gaps longer than max_gap.
func checkOutput(in, out geo.Trajectory, segments, wantSegments int) error {
	if segments != wantSegments {
		return fmt.Errorf("%s: %d segments reported, %d input gaps exceed max_gap", in.ID, segments, wantSegments)
	}
	next := 0 // index of the next input point to find
	lastT := math.Inf(-1)
	for k, p := range out.Points {
		if p.T < lastT {
			return fmt.Errorf("%s: timestamp decreases at output point %d", in.ID, k)
		}
		lastT = p.T
		if next < len(in.Points) && p == in.Points[next] {
			next++
			continue
		}
		if next == 0 || next == len(in.Points) {
			return fmt.Errorf("%s: output point %d lies outside the input's first and last points", in.ID, k)
		}
		if lo, hi := in.Points[next-1].T, in.Points[next].T; p.T < lo || p.T > hi {
			return fmt.Errorf("%s: inserted point %d at t=%v outside its gap [%v, %v]", in.ID, k, p.T, lo, hi)
		}
	}
	if next != len(in.Points) {
		return fmt.Errorf("%s: input point %d missing or altered in the output", in.ID, next)
	}
	return nil
}

// sameOutput reports whether two imputations of one input are identical:
// batching and concurrency are documented to change no result.
func sameOutput(a, b geo.Trajectory) error {
	if len(a.Points) != len(b.Points) {
		return fmt.Errorf("%s: %d points, the lone sequential call gave %d", a.ID, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return fmt.Errorf("%s: point %d differs from the lone sequential call", a.ID, i)
		}
	}
	return nil
}

// accuracy scores imputations against ground truth with the paper's §8
// recall and precision (internal/metrics), weighting by support.
func accuracy(proj *geo.Projection, cases []testCase, outs []geo.Trajectory, deltaM float64) (recall, precision float64) {
	var acc metrics.Accumulator
	for i, c := range cases {
		acc.Add(metrics.Evaluate(proj, c.truth, outs[i], maxGapM, deltaM))
	}
	return acc.Recall(), acc.Precision()
}
