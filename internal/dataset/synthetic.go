package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Family enumerates the synthetic generator families, chosen to mirror the
// data sources of the UCR archive (sensor readings, image outlines, motion,
// spectrographs, medical signals, electric devices, simulated data).
type Family int

const (
	FamilyHarmonic Family = iota // sensor-like harmonic mixtures
	FamilyBumps                  // Gaussian bumps at class positions
	FamilyCBF                    // cylinder-bell-funnel (simulated classic)
	FamilyShapes                 // square/triangle/saw outlines
	FamilyECG                    // spike-complex medical signals
	FamilySpectro                // smooth spectral envelopes
	FamilyDevice                 // piecewise-constant device loads
	FamilyWalk                   // random-walk trends with class drift
	numFamilies
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case FamilyHarmonic:
		return "Harmonic"
	case FamilyBumps:
		return "Bumps"
	case FamilyCBF:
		return "CBF"
	case FamilyShapes:
		return "Shapes"
	case FamilyECG:
		return "ECG"
	case FamilySpectro:
		return "Spectro"
	case FamilyDevice:
		return "Device"
	case FamilyWalk:
		return "Walk"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Config describes one synthetic dataset: its generator family, shape, and
// the per-instance distortions applied on top of the class prototypes.
type Config struct {
	Name       string
	Family     Family
	Length     int
	NumClasses int
	TrainSize  int
	TestSize   int
	Seed       int64

	NoiseSigma  float64 // additive Gaussian noise level
	ShiftFrac   float64 // max circular shift as a fraction of the length
	WarpFrac    float64 // strength of smooth local time warping (0 = none)
	OutlierProb float64 // per-point probability of an impulsive outlier
	AmpJitter   float64 // multiplicative amplitude jitter range
}

// Generate builds the dataset described by the config. Generation is fully
// deterministic given the config (including Seed). Series are returned
// z-normalized, matching the archive's published form.
func Generate(cfg Config) *Dataset {
	if cfg.Length < 8 || cfg.NumClasses < 2 || cfg.TrainSize < cfg.NumClasses || cfg.TestSize < 1 {
		panic(fmt.Sprintf("dataset: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([][]float64, cfg.NumClasses)
	for c := range protos {
		protos[c] = prototype(cfg, c, rng)
	}
	d := &Dataset{Name: cfg.Name}
	gen := func(count int) ([][]float64, []int) {
		series := make([][]float64, count)
		labels := make([]int, count)
		for i := 0; i < count; i++ {
			c := i % cfg.NumClasses // balanced class distribution
			labels[i] = c + 1       // UCR labels are 1-based
			// distort returns a fresh series, so it is normalized in place.
			x := distort(protos[c], cfg, rng)
			zNormalizeInPlace(x)
			series[i] = x
		}
		return series, labels
	}
	d.Train, d.TrainLabels = gen(cfg.TrainSize)
	d.Test, d.TestLabels = gen(cfg.TestSize)
	return d
}

// prototype builds the noiseless class template for class c.
func prototype(cfg Config, c int, rng *rand.Rand) []float64 {
	m := cfg.Length
	x := make([]float64, m)
	switch cfg.Family {
	case FamilyHarmonic:
		// Class-specific fundamental plus two harmonics with random phases.
		f0 := 1.5 + float64(c)*0.9 + rng.Float64()*0.3
		p0, p1, p2 := rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
		a1, a2 := 0.4+0.3*rng.Float64(), 0.2+0.2*rng.Float64()
		for i := range x {
			t := float64(i) / float64(m)
			x[i] = math.Sin(2*math.Pi*f0*t+p0) +
				a1*math.Sin(2*math.Pi*2*f0*t+p1) +
				a2*math.Sin(2*math.Pi*3*f0*t+p2)
		}
	case FamilyBumps:
		// One to three Gaussian bumps at class-dependent positions.
		bumps := 1 + c%3
		for b := 0; b < bumps; b++ {
			center := float64(m) * (0.15 + 0.7*(float64(c+1)*0.37+float64(b)*0.23-
				math.Floor(float64(c+1)*0.37+float64(b)*0.23)))
			width := float64(m) * (0.03 + 0.05*rng.Float64())
			amp := 1.0 + 0.5*rng.Float64()
			if b%2 == 1 {
				amp = -amp
			}
			for i := range x {
				d := (float64(i) - center) / width
				x[i] += amp * math.Exp(-0.5*d*d)
			}
		}
	case FamilyCBF:
		// Cylinder-bell-funnel: onsets/offsets drawn per class prototype.
		a := m/8 + rng.Intn(m/8)
		b := m - m/8 - rng.Intn(m/8)
		for i := a; i < b; i++ {
			switch c % 3 {
			case 0: // cylinder
				x[i] = 1
			case 1: // bell: ramp up
				x[i] = float64(i-a) / float64(b-a)
			default: // funnel: ramp down
				x[i] = float64(b-i) / float64(b-a)
			}
		}
		if c >= 3 { // extra classes invert the pattern
			for i := range x {
				x[i] = -x[i]
			}
		}
	case FamilyShapes:
		// Periodic square / triangle / sawtooth with class duty cycle.
		period := float64(m) / (2 + float64(c%4))
		duty := 0.3 + 0.1*float64(c%5)
		for i := range x {
			phase := math.Mod(float64(i), period) / period
			switch c % 3 {
			case 0: // square
				if phase < duty {
					x[i] = 1
				} else {
					x[i] = -1
				}
			case 1: // triangle
				x[i] = 1 - 4*math.Abs(phase-0.5)
			default: // sawtooth
				x[i] = 2*phase - 1
			}
		}
	case FamilyECG:
		// Repeating spike complexes; class controls spike width/amplitude mix.
		period := m / (3 + c%3)
		if period < 8 {
			period = 8
		}
		spikeW := 1 + c%4
		for start := period / 2; start+2*spikeW+2 < m; start += period {
			// R-like spike up then S-like dip, widths class-dependent.
			for k := 0; k <= spikeW; k++ {
				frac := float64(k) / float64(spikeW)
				if start+k < m {
					x[start+k] += (1.5 + 0.3*float64(c)) * (1 - frac)
				}
				if start+spikeW+k < m {
					x[start+spikeW+k] -= 0.7 * (1 - frac)
				}
			}
			// T-like smooth wave after the complex.
			tw := period / 4
			for k := 0; k < tw && start+2*spikeW+k < m; k++ {
				x[start+2*spikeW+k] += 0.4 * math.Sin(math.Pi*float64(k)/float64(tw))
			}
		}
	case FamilySpectro:
		// Smooth envelope: mixture of wide Gaussians, classes move the peaks.
		peaks := 2 + c%3
		for pk := 0; pk < peaks; pk++ {
			center := float64(m) * (float64(pk+1) + 0.4*float64(c)) / (float64(peaks) + 2)
			width := float64(m) * (0.08 + 0.04*rng.Float64())
			amp := 0.8 + 0.4*rng.Float64() + 0.2*float64(c%2)
			for i := range x {
				d := (float64(i) - center) / width
				x[i] += amp * math.Exp(-0.5*d*d)
			}
		}
	case FamilyDevice:
		// Piecewise-constant loads: class controls on-duration and level.
		on := m/10 + c*m/20
		if on < 2 {
			on = 2
		}
		off := m/8 + (c%2)*m/16
		if off < 2 {
			off = 2
		}
		level := 1.0 + 0.5*float64(c)
		i := rng.Intn(off)
		for i < m {
			for k := 0; k < on && i < m; k, i = k+1, i+1 {
				x[i] = level
			}
			i += off
		}
	case FamilyWalk:
		// Smoothed random walk plus class-dependent drift and curvature.
		drift := (float64(c) - float64(cfg.NumClasses-1)/2) * 3 / float64(m)
		curv := float64(c%3-1) * 4 / float64(m*m)
		v := 0.0
		for i := range x {
			v += rng.NormFloat64() * 0.15
			x[i] = v + drift*float64(i) + curv*float64(i)*float64(i)
		}
		x = movingAverage(x, 1+m/32)
	default:
		panic(fmt.Sprintf("dataset: unknown family %d", cfg.Family))
	}
	return x
}

// distort applies the per-instance distortions: smooth local time warping,
// circular shift, amplitude jitter, Gaussian noise, and impulsive outliers.
// It returns a fresh series; proto is never modified.
func distort(proto []float64, cfg Config, rng *rand.Rand) []float64 {
	m := len(proto)
	x := proto
	if cfg.WarpFrac > 0 {
		x = warp(x, cfg.WarpFrac, rng)
	} else {
		x = append([]float64(nil), x...)
	}
	if cfg.ShiftFrac > 0 {
		maxShift := int(cfg.ShiftFrac * float64(m))
		if maxShift > 0 {
			shift := rng.Intn(2*maxShift+1) - maxShift
			rotate(x, shift)
		}
	}
	amp := 1.0
	if cfg.AmpJitter > 0 {
		amp = 1 + cfg.AmpJitter*(2*rng.Float64()-1)
	}
	for i := range x {
		x[i] = amp*x[i] + cfg.NoiseSigma*rng.NormFloat64()
		if cfg.OutlierProb > 0 && rng.Float64() < cfg.OutlierProb {
			x[i] += (4 + 4*rng.Float64()) * sign(rng)
		}
	}
	return x
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// warp resamples x along a smooth monotone warp map built from cumulative
// positive increments, stretching and shrinking local regions by up to
// roughly +/- strength.
func warp(x []float64, strength float64, rng *rand.Rand) []float64 {
	m := len(x)
	// Low-frequency perturbation of the sampling speed.
	f := 1 + rng.Intn(3)
	phase := rng.Float64() * 2 * math.Pi
	inc := make([]float64, m)
	var total float64
	for i := range inc {
		inc[i] = math.Exp(strength * 2 * math.Sin(2*math.Pi*float64(f)*float64(i)/float64(m)+phase))
		total += inc[i]
	}
	out := make([]float64, m)
	pos := 0.0
	scale := float64(m-1) / total
	cum := 0.0
	for i := range out {
		pos = cum * scale
		lo := int(pos)
		if lo >= m-1 {
			out[i] = x[m-1]
		} else {
			frac := pos - float64(lo)
			out[i] = x[lo]*(1-frac) + x[lo+1]*frac
		}
		cum += inc[i]
	}
	return out
}

// rotate circularly shifts x in place, right by shift positions (left for
// negative), by three reversals.
func rotate(x []float64, shift int) {
	m := len(x)
	if m == 0 {
		return
	}
	shift = ((shift % m) + m) % m
	slices.Reverse(x)
	slices.Reverse(x[:shift])
	slices.Reverse(x[shift:])
}

func movingAverage(x []float64, w int) []float64 {
	if w <= 1 {
		return x
	}
	out := make([]float64, len(x))
	var sum float64
	count := 0
	for i := range x {
		sum += x[i]
		count++
		if i >= w {
			sum -= x[i-w]
			count--
		}
		out[i] = sum / float64(count)
	}
	return out
}

// ArchiveOptions controls synthetic archive generation.
type ArchiveOptions struct {
	Seed      int64
	Count     int // number of datasets (the paper's archive has 128)
	MaxLength int // cap on series length (0 = default 512)
	MaxTrain  int // cap on training-set size (0 = default 64)
	MaxTest   int // cap on test-set size (0 = default 128)
}

// GenerateArchive builds a deterministic synthetic archive of Count
// datasets with varied families, lengths, class counts, split sizes, and
// distortion profiles, standing in for the UCR Time-Series Archive. The
// distortion profile rotates so that roughly a third of the datasets are
// alignment-free (lock-step-friendly), a third are shift-dominated
// (sliding-friendly), and a third are warp-dominated (elastic-friendly),
// with heavy-tailed noise on a subset — reproducing the phenomena the
// paper's findings rest on.
func GenerateArchive(opts ArchiveOptions) []*Dataset {
	if opts.Count <= 0 {
		opts.Count = 128
	}
	maxLen := opts.MaxLength
	if maxLen <= 0 {
		maxLen = 512
	}
	maxTrain := opts.MaxTrain
	if maxTrain <= 0 {
		maxTrain = 64
	}
	maxTest := opts.MaxTest
	if maxTest <= 0 {
		maxTest = 128
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	datasets := make([]*Dataset, opts.Count)
	for i := range datasets {
		fam := Family(i % int(numFamilies))
		length := 60 + rng.Intn(197) // 60..256
		if length > maxLen {
			length = maxLen
		}
		classes := 2 + rng.Intn(5) // 2..6
		train := classes * (4 + rng.Intn(9))
		if train > maxTrain {
			train = maxTrain - maxTrain%classes
			if train < classes {
				train = classes
			}
		}
		test := classes * (6 + rng.Intn(13))
		if test > maxTest {
			test = maxTest
		}
		cfg := Config{
			Name:       fmt.Sprintf("Syn%s%03d", fam, i),
			Family:     fam,
			Length:     length,
			NumClasses: classes,
			TrainSize:  train,
			TestSize:   test,
			Seed:       opts.Seed*1_000_003 + int64(i)*7919,
			NoiseSigma: 0.15 + 0.35*rng.Float64(),
			AmpJitter:  0.1 + 0.2*rng.Float64(),
		}
		// Rotate the distortion profile (see doc comment).
		switch i % 3 {
		case 0: // lock-step friendly: no alignment distortion
			cfg.ShiftFrac, cfg.WarpFrac = 0, 0
		case 1: // shift-dominated
			cfg.ShiftFrac = 0.1 + 0.25*rng.Float64()
			cfg.WarpFrac = 0.05 * rng.Float64()
		default: // warp-dominated
			cfg.ShiftFrac = 0.05 * rng.Float64()
			cfg.WarpFrac = 0.15 + 0.25*rng.Float64()
		}
		// Heavy-tailed noise on a quarter of the datasets (favours L1-family
		// over ED, as in Table 2).
		if i%4 == 3 {
			cfg.OutlierProb = 0.01 + 0.02*rng.Float64()
		}
		datasets[i] = Generate(cfg)
	}
	return datasets
}
