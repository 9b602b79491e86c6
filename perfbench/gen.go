package main

import (
	"math"
	"math/rand"

	mdz "github.com/mdz/mdz"
)

// The generators below stand in for the MD analogs of internal/gen, which
// integrate real dynamics and take seconds to tens of seconds per dataset:
// far too slow to rebuild on every run. They keep the two properties the
// compressor's layers react to — lattice planes that give k-means levels
// to find (solid) versus positions that drift without structure (liquid) —
// and are fully determined by the seed.

// fccLatticeConstant is copper's lattice constant in Å.
const fccLatticeConstant = 3.615

// fccSolid returns snaps snapshots of a 4·cells³-atom FCC crystal whose
// atoms vibrate around their lattice sites: each displacement is an AR(1)
// process with stationary rms sigma and lag-one correlation rho, the
// discrete picture of a thermal phonon bath sampled at a fixed stride.
func fccSolid(seed int64, cells, snaps int) []mdz.Frame {
	const (
		sigma = 0.08 // Å, rms thermal displacement per axis
		rho   = 0.6  // correlation between consecutive snapshots
	)
	rng := rand.New(rand.NewSource(seed))
	basis := [4][3]float64{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	n := 4 * cells * cells * cells
	var site, disp [3][]float64
	for a := range site {
		site[a] = make([]float64, 0, n)
		disp[a] = make([]float64, n)
	}
	for i := 0; i < cells; i++ {
		for j := 0; j < cells; j++ {
			for k := 0; k < cells; k++ {
				for _, b := range basis {
					site[0] = append(site[0], (float64(i)+b[0])*fccLatticeConstant)
					site[1] = append(site[1], (float64(j)+b[1])*fccLatticeConstant)
					site[2] = append(site[2], (float64(k)+b[2])*fccLatticeConstant)
				}
			}
		}
	}
	for a := range disp {
		for p := range disp[a] {
			disp[a][p] = sigma * rng.NormFloat64()
		}
	}
	innov := sigma * math.Sqrt(1-rho*rho)
	frames := make([]mdz.Frame, snaps)
	for t := range frames {
		var axes [3][]float64
		for a := range axes {
			axes[a] = make([]float64, n)
			for p := range axes[a] {
				if t > 0 {
					disp[a][p] = rho*disp[a][p] + innov*rng.NormFloat64()
				}
				axes[a][p] = site[a][p] + disp[a][p]
			}
		}
		frames[t] = mdz.Frame{X: axes[0], Y: axes[1], Z: axes[2]}
	}
	return frames
}

// liquid returns snaps snapshots of atoms diffusing through a cubic box at
// a liquid-like number density. Velocities decorrelate over a few
// snapshots (an Ornstein–Uhlenbeck process), so positions are smooth in
// time but carry no spatial structure; coordinates are left unwrapped, as
// trajectory analysis usually wants them.
func liquid(seed int64, atoms, snaps int) []mdz.Frame {
	const (
		density = 0.08 // atoms per Å³
		vrms    = 0.2  // Å per snapshot
		keep    = 0.9  // velocity correlation between snapshots
	)
	rng := rand.New(rand.NewSource(seed))
	box := math.Cbrt(float64(atoms) / density)
	var pos, vel [3][]float64
	for a := range pos {
		pos[a] = make([]float64, atoms)
		vel[a] = make([]float64, atoms)
		for p := range pos[a] {
			pos[a][p] = box * rng.Float64()
			vel[a][p] = vrms * rng.NormFloat64()
		}
	}
	kick := vrms * math.Sqrt(1-keep*keep)
	frames := make([]mdz.Frame, snaps)
	for t := range frames {
		var axes [3][]float64
		for a := range axes {
			axes[a] = make([]float64, atoms)
			for p := range axes[a] {
				if t > 0 {
					vel[a][p] = keep*vel[a][p] + kick*rng.NormFloat64()
					pos[a][p] += vel[a][p]
				}
				axes[a][p] = pos[a][p]
			}
		}
		frames[t] = mdz.Frame{X: axes[0], Y: axes[1], Z: axes[2]}
	}
	return frames
}

// rawBytes is the uncompressed float64 size of frames.
func rawBytes(frames []mdz.Frame) int64 {
	var n int64
	for _, f := range frames {
		n += int64(3 * 8 * f.N())
	}
	return n
}
