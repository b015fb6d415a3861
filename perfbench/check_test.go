package main

import (
	"math"
	"strings"
	"testing"

	"kamel/internal/geo"
)

// sparseAndImputed is a two-gap input and a correct imputation of it.
func sparseAndImputed() (in, out geo.Trajectory) {
	in = geo.Trajectory{ID: "t", Points: []geo.Point{
		{Lat: 41.150, Lng: -8.610, T: 0},
		{Lat: 41.152, Lng: -8.610, T: 30},
		{Lat: 41.152, Lng: -8.607, T: 60},
	}}
	out = geo.Trajectory{ID: "t", Points: []geo.Point{
		in.Points[0],
		{Lat: 41.1507, Lng: -8.610, T: 10},
		{Lat: 41.1514, Lng: -8.610, T: 20},
		in.Points[1],
		{Lat: 41.152, Lng: -8.6085, T: 45},
		in.Points[2],
	}}
	return in, out
}

func TestCheckOutputAcceptsCorrectImputation(t *testing.T) {
	in, out := sparseAndImputed()
	proj := geo.NewProjection(in.Points[0].Lat, in.Points[0].Lng)
	gaps := countGaps(proj, in)
	if gaps != 2 {
		t.Fatalf("countGaps = %d, want 2 (both gaps are ~220 m and ~250 m)", gaps)
	}
	if err := checkOutput(in, out, 2, gaps); err != nil {
		t.Fatal(err)
	}
	if err := sameOutput(out, out); err != nil {
		t.Fatal(err)
	}
}

func TestCheckOutputFlagsBrokenOutputs(t *testing.T) {
	in, good := sparseAndImputed()
	clone := func() geo.Trajectory { return good.Clone() }

	dropped := clone()
	dropped.Points = append(dropped.Points[:3:3], dropped.Points[4:]...) // input point 1 gone

	reversed := clone()
	reversed.Points[1].T, reversed.Points[2].T = reversed.Points[2].T, reversed.Points[1].T

	shifted := clone()
	shifted.Points[3].Lat += 1e-5 // input point 1 moved by about a metre

	outside := clone()
	outside.Points[4].T = 61 // inserted after its gap's end time

	droppedLast := clone()
	droppedLast.Points = droppedLast.Points[:5]

	cases := []struct {
		name     string
		out      geo.Trajectory
		segments int
		want     string
	}{
		// The next inserted point is then matched against the missing
		// input point's gap, whose time range it lies outside of.
		{"dropped point", dropped, 2, "outside its gap"},
		{"dropped last point", droppedLast, 2, "input point 2 missing or altered"},
		{"reversed timestamps", reversed, 2, "timestamp decreases"},
		{"shifted point", shifted, 2, "outside its gap"},
		{"inserted outside its gap", outside, 2, "outside its gap"},
		{"wrong segment count", good, 1, "segments reported"},
	}
	for _, c := range cases {
		err := checkOutput(in, c.out, c.segments, 2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	if err := sameOutput(shifted, good); err == nil {
		t.Error("sameOutput accepted a shifted point")
	}
	if err := sameOutput(dropped, good); err == nil {
		t.Error("sameOutput accepted a dropped point")
	}
}

func TestCheckOutputFlagsInsertedPointOutsideItsGap(t *testing.T) {
	in, out := sparseAndImputed()
	// Timestamps still increase, but the point sits in the second gap's
	// time range while lying between input points 0 and 1.
	out.Points[2].T = 29
	if err := checkOutput(in, out, 2, 2); err != nil {
		t.Fatalf("a point at the gap's edge time is valid: %v", err)
	}
	out.Points[1].T, out.Points[2].T = 31, 32
	if err := checkOutput(in, out, 2, 2); err == nil || !strings.Contains(err.Error(), "outside its gap") {
		t.Fatalf("got %v, want an inserted point outside its gap", err)
	}
}

// TestAccuracyHandWorked scores a polyline case worked by hand.  Truth runs
// 300 m due east.  The imputation leaves it for a 60 m-high detour between
// x=100 and x=200: (0,0) (100,0) (100,60) (200,60) (200,0) (300,0).
//
// Recall: truth resampled every max_gap=100 m is x=0, 100, 200, 300, all on
// the imputed polyline, so recall is 1.
//
// Precision: the imputed polyline is 420 m long; resampled every 100 m it
// gives (0,0) (100,0) (140,60) (200,20) (280,0) and its end (300,0), which lie
// 0, 0, 60, 20, 0 and 0 m from the truth.  At δ=50 m five of six are hits
// (5/6); at δ=10 m four (4/6).
func TestAccuracyHandWorked(t *testing.T) {
	proj := geo.NewProjection(41.15, -8.61)
	pt := func(x, y float64) geo.Point { return proj.ToLatLng(geo.XY{X: x, Y: y}) }
	truth := geo.Trajectory{ID: "c", Points: []geo.Point{pt(0, 0), pt(300, 0)}}
	imputed := geo.Trajectory{ID: "c", Points: []geo.Point{
		pt(0, 0), pt(100, 0), pt(100, 60), pt(200, 60), pt(200, 0), pt(300, 0),
	}}
	cases := []testCase{{truth: truth}}
	for _, c := range []struct{ delta, precision float64 }{{50, 5.0 / 6}, {10, 4.0 / 6}} {
		recall, precision := accuracy(proj, cases, []geo.Trajectory{imputed}, c.delta)
		if math.Abs(recall-1) > 1e-9 || math.Abs(precision-c.precision) > 1e-9 {
			t.Errorf("δ=%v: recall %v precision %v, want 1 and %v", c.delta, recall, precision, c.precision)
		}
	}
}

func TestParseProm(t *testing.T) {
	sc, err := parseProm(strings.NewReader(`# HELP kamel_x help
# TYPE kamel_stage_duration_seconds histogram
kamel_stage_duration_seconds_bucket{stage="impute.beam",le="0.005"} 3
kamel_stage_duration_seconds_sum{stage="impute.beam"} 0.25
kamel_stage_duration_seconds_count{stage="impute.beam"} 4
kamel_admission_shed_total{reason="limit"} 2
kamel_admission_shed_total{reason="quota"} 1
kamel_http_request_duration_seconds_sum{route="/v1/impute",status="200"} 1.5
kamel_batcher_items_total 12
`))
	if err != nil {
		t.Fatal(err)
	}
	if sum, count := sc.stage("impute.beam"); sum != 0.25 || count != 4 {
		t.Errorf("stage = %v, %v", sum, count)
	}
	if v := sc.sum("kamel_admission_shed_total"); v != 3 {
		t.Errorf("shed = %v, want 3", v)
	}
	if v := sc.sum("kamel_http_request_duration_seconds_sum", "route", "/v1/impute"); v != 1.5 {
		t.Errorf("http sum = %v", v)
	}
	if v := sc.sum("kamel_batcher_items_total"); v != 12 {
		t.Errorf("items = %v", v)
	}
}
