package main

import (
	"fmt"
	"math"
	"sort"

	mdz "github.com/mdz/mdz"
)

// samples is one timing series (or any per-operation quantity).
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile in tailLevels that has at least ten
// samples beyond it, with its level; fewer than 20 samples leave only the
// median.
func (s samples) tail() (level, value float64) {
	for _, l := range tailLevels {
		if float64(len(s))*(1-l/100) >= 10 {
			return l, s.quantile(l / 100)
		}
	}
	return 50, s.median()
}

// timing summarises a latency series the way every report line shows it:
// median, the highest well-populated tail, and the sample count.
func (s samples) timing() string {
	l, v := s.tail()
	return fmt.Sprintf("p50 %.4g, p%g %.4g, n=%d", s.median(), l, v, len(s))
}

// bounds holds the per-axis absolute error bound and value range the
// compressor derives in ValueRange mode: the range of the first batch of
// each axis, scaled by the relative bound.
type bounds struct {
	eb, span [3]float64
}

func boundsOf(frames []mdz.Frame, batch int, rel float64) bounds {
	var b bounds
	if batch > len(frames) {
		batch = len(frames)
	}
	for a := 0; a < 3; a++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, f := range frames[:batch] {
			for _, v := range axis(f, a) {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
		}
		b.span[a] = hi - lo
		b.eb[a] = rel * b.span[a]
	}
	return b
}

func axis(f mdz.Frame, a int) []float64 {
	switch a {
	case 0:
		return f.X
	case 1:
		return f.Y
	}
	return f.Z
}

// checker counts operations and the failed ones, and accumulates the
// reconstruction error of every decoded value it is shown.
type checker struct {
	attempted, failed int64
	firstFailure      string

	maxErrOverEB float64
	sumSqRel     float64 // Σ (error / axis value range)²
	values       int64
}

// record counts one operation and whether it failed.
func (c *checker) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstFailure == "" {
			c.firstFailure = err.Error()
		}
	}
}

// within checks every value of got against the source frames want: each
// error must be within the axis bound. It accumulates the error statistics.
func (c *checker) within(got, want []mdz.Frame, b bounds) error {
	if len(got) != len(want) {
		return fmt.Errorf("decoded %d snapshots, want %d", len(got), len(want))
	}
	var bad error
	for t := range got {
		for a := 0; a < 3; a++ {
			g, w := axis(got[t], a), axis(want[t], a)
			if len(g) != len(w) {
				return fmt.Errorf("snapshot %d axis %d: %d values, want %d", t, a, len(g), len(w))
			}
			eb, span := b.eb[a], b.span[a]
			for i := range g {
				d := math.Abs(g[i] - w[i])
				if r := d / eb; r > c.maxErrOverEB {
					c.maxErrOverEB = r
				}
				c.sumSqRel += (d / span) * (d / span)
				if !(d <= eb) && bad == nil {
					bad = fmt.Errorf("snapshot %d axis %d atom %d: error %g over bound %g", t, a, i, d, eb)
				}
			}
			c.values += int64(len(g))
		}
	}
	return bad
}

// nrmse is the root-mean-square error over every checked value, each
// normalised by its axis value range.
func (c *checker) nrmse() float64 {
	if c.values == 0 {
		return 0
	}
	return math.Sqrt(c.sumSqRel / float64(c.values))
}

func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.firstFailure == "" {
		c.firstFailure = o.firstFailure
	}
	c.maxErrOverEB = math.Max(c.maxErrOverEB, o.maxErrOverEB)
	c.sumSqRel += o.sumSqRel
	c.values += o.values
}

// sameFrames reports whether got is bit-identical to want.
func sameFrames(got, want []mdz.Frame) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d snapshots, want %d", len(got), len(want))
	}
	for t := range got {
		for a := 0; a < 3; a++ {
			g, w := axis(got[t], a), axis(want[t], a)
			if len(g) != len(w) {
				return fmt.Errorf("snapshot %d axis %d: %d values, want %d", t, a, len(g), len(w))
			}
			for i := range g {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					return fmt.Errorf("snapshot %d axis %d atom %d: %v, want %v", t, a, i, g[i], w[i])
				}
			}
		}
	}
	return nil
}
