package signal

import (
	"math"
	"math/cmplx"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Batched structure-of-arrays kernels. A Plane stores the I and Q sample
// sequences of a waveform in two flat float64 slices, so the hot kernels
// (synthesis, gain fitting, cancellation, envelope test, demodulation) run
// as straight-line loops over contiguous memory: the compiler eliminates
// bounds checks, and independent accumulator chains keep both FP ports
// busy instead of serialising on one complex accumulator.
//
// Every kernel in this file is bit-identical to its scalar Waveform
// counterpart: each output value is produced by the exact same sequence of
// floating-point operations, in the same order, as the complex128 code
// path. (Go's complex multiply lowers to the naive four-multiply form with
// individually rounded parts, which is exactly what the plane loops spell
// out; conjugation and negation are exact, so Hermitian mirrors reuse the
// transposed dot product instead of recomputing it.) The only deliberate
// exception is EnvelopeFlatPlane's fast path, which uses reassociated
// moment sums to *bound* the decision — whenever the bound is not
// conclusive it falls back to the exact scalar-order loop, so the returned
// boolean is always the one the scalar test computes.
// FuzzBatchedSignalEquivalence pins all of this.

// Plane is the structure-of-arrays layout of a Waveform: Re holds the
// in-phase (real) samples and Im the quadrature (imaginary) samples.
// Both slices always have equal length.
type Plane struct {
	Re, Im []float64
}

// Len returns the number of samples.
func (p *Plane) Len() int { return len(p.Re) }

// Reset sizes the plane to n samples, reusing capacity, and zeroes them.
func (p *Plane) Reset(n int) {
	if cap(p.Re) < n {
		p.Re = make([]float64, n)
		p.Im = make([]float64, n)
		return
	}
	p.Re = p.Re[:n]
	p.Im = p.Im[:n]
	clear(p.Re)
	clear(p.Im)
}

// resize sizes the plane to n samples, reusing capacity, without zeroing.
func (p *Plane) resize(n int) {
	if cap(p.Re) < n {
		p.Re = make([]float64, n)
		p.Im = make([]float64, n)
		return
	}
	p.Re = p.Re[:n]
	p.Im = p.Im[:n]
}

// SetWaveform copies the interleaved waveform into the plane.
func (p *Plane) SetWaveform(w Waveform) {
	p.resize(len(w))
	for i, s := range w {
		p.Re[i] = real(s)
		p.Im[i] = imag(s)
	}
}

// Waveform interleaves the plane back into a complex waveform, appending
// to dst[:0]'s backing array.
func (p *Plane) Waveform(dst Waveform) Waveform {
	dst = dst[:0]
	for i := range p.Re {
		dst = append(dst, complex(p.Re[i], p.Im[i]))
	}
	return dst
}

// CopyFrom makes p an independent copy of src.
func (p *Plane) CopyFrom(src *Plane) {
	p.resize(src.Len())
	copy(p.Re, src.Re)
	copy(p.Im, src.Im)
}

// ModulateInto is Modulate writing into a reusable plane.
func ModulateInto(p *Plane, data []byte, nbits, spb int) {
	p.resize(1 + nbits*spb)
	phase := 0.0
	p.Re[0], p.Im[0] = 1, 0
	n := 1
	for i := 0; i < nbits; i++ {
		step := phaseStepPerBit / float64(spb)
		if data[i/8]>>(7-i%8)&1 == 0 {
			step = -step
		}
		for s := 0; s < spb; s++ {
			phase += step
			e := cmplx.Exp(complex(0, phase))
			p.Re[n], p.Im[n] = real(e), imag(e)
			n++
		}
	}
}

// ModulateIDInto is ModulateID writing into a reusable plane.
func ModulateIDInto(p *Plane, id tagid.ID, spb int) {
	ModulateInto(p, id.Bytes(), tagid.Bits, spb)
}

// RotationInto fills p with the n-sample phase ramp e^(i*dw*k), the
// frequency-offset rotation a drifting tag applies to its waveform. The
// samples are computed by the exact expression the scalar synthesis loop
// uses, so a cached rotation plane reproduces its bits.
func RotationInto(p *Plane, dw float64, n int) {
	p.resize(n)
	for i := 0; i < n; i++ {
		e := cmplx.Exp(complex(0, dw*float64(i)))
		p.Re[i], p.Im[i] = real(e), imag(e)
	}
}

// AccumulateScaled adds gain-scaled ref into p sample-wise: p += ref * g.
// Bit-identical to `rx[i] += ref[i] * g` over complex128.
func (p *Plane) AccumulateScaled(ref *Plane, g complex128) {
	gr, gi := real(g), imag(g)
	n := p.Len()
	pr, pi := p.Re[:n], p.Im[:n]
	rr, ri := ref.Re[:n], ref.Im[:n]
	for k := range pr {
		sr, si := rr[k], ri[k]
		pr[k] += sr*gr - si*gi
		pi[k] += sr*gi + si*gr
	}
}

// AccumulateScaledRotated adds a rotated, gain-scaled ref into p:
// p[k] += (ref[k] * rot[k]) * g, the association order of the scalar
// synthesis loop `rx[i] += s * e^(i*dw*i) * g`.
func (p *Plane) AccumulateScaledRotated(ref, rot *Plane, g complex128) {
	gr, gi := real(g), imag(g)
	n := p.Len()
	pr, pi := p.Re[:n], p.Im[:n]
	rr, ri := ref.Re[:n], ref.Im[:n]
	wr, wi := rot.Re[:n], rot.Im[:n]
	for k := range pr {
		sr, si := rr[k], ri[k]
		tr := sr*wr[k] - si*wi[k]
		ti := sr*wi[k] + si*wr[k]
		pr[k] += tr*gr - ti*gi
		pi[k] += tr*gi + ti*gr
	}
}

// AddNoisePlane adds complex AWGN in place, drawing the generator in the
// exact order AddNoise does (I then Q per sample).
func AddNoisePlane(p *Plane, sigma float64, r *rng.Source) {
	if sigma <= 0 {
		return
	}
	s := sigma / math.Sqrt2
	n := p.Len()
	pr, pi := p.Re[:n], p.Im[:n]
	for k := range pr {
		pr[k] += s * r.NormFloat64()
		pi[k] += s * r.NormFloat64()
	}
}

// DecodeIDPlane is DecodeID over a plane: differential MSK demodulation of
// a 96-bit waveform plus CRC verification. The per-bit decision integrates
// imag(w[n] * conj(w[n-1])) with the scalar loop's operation order.
func DecodeIDPlane(p *Plane, spb int) (tagid.ID, bool) {
	if p.Len() != 1+tagid.Bits*spb {
		return tagid.ID{}, false
	}
	var id tagid.ID
	re, im := p.Re, p.Im[:len(p.Re)]
	for i := 0; i < tagid.Bits; i++ {
		var ai float64
		base := 1 + i*spb
		for s := 0; s < spb; s++ {
			xr, xi := re[base+s], im[base+s]
			yr, yi := re[base+s-1], im[base+s-1]
			ai += xi*yr - xr*yi
		}
		if ai > 0 {
			id[i/8] |= 1 << (7 - i%8)
		}
	}
	return id, id.Valid()
}

// EnvelopeFlatPlane is EnvelopeFlat over a plane. The fast path makes one
// branchless pass accumulating the first two moments of the squared
// magnitude X = |s|^2 (reassociated into independent partial sums, so the
// loop is add/mul throughput-bound instead of sqrt throughput-bound like
// the scalar test) and decides from a rigorous envelope bound:
//
//	Var(m) <= E[(m - sqrt(q))^2] = E[(X-q)^2 / (m + sqrt(q))^2] <= Var(X)/q
//
// for m = |s| >= 0 and q = E[X], hence sd <= sqrt(Var(X)/q) and
// mean = E[m] >= sqrt(q - Var(X)/q). When those bounds (inflated by a
// tolerance covering the reassociation error) prove the scalar test would
// accept, the answer is true without touching a square root per sample;
// anything else — including every rejection — falls back to the exact
// scalar-order loop, so the decision is always bit-identical to
// EnvelopeFlat.
func EnvelopeFlatPlane(p *Plane, noiseSigma float64) bool {
	n := p.Len()
	if n == 0 {
		return true
	}
	re, im := p.Re, p.Im[:len(p.Re)]
	var s0, s1, q0, q1 float64
	k := 0
	for ; k+2 <= n; k += 2 {
		x0 := re[k]*re[k] + im[k]*im[k]
		x1 := re[k+1]*re[k+1] + im[k+1]*im[k+1]
		s0 += x0
		q0 += x0 * x0
		s1 += x1
		q1 += x1 * x1
	}
	if k < n {
		x := re[k]*re[k] + im[k]*im[k]
		s0 += x
		q0 += x * x
	}
	nf := float64(n)
	q := (s0 + s1) / nf
	if q > 0 {
		varX := (q0+q1)/nf - q*q
		if varX < 0 {
			varX = 0
		}
		vq := varX / q
		mLo2 := q - vq
		if mLo2 < 0 {
			mLo2 = 0
		}
		// tol absorbs the difference between the reassociated moments here
		// and the sequential sums of the scalar loop (relative error
		// ~n*2^-53, amplified by the variance cancellation to ~1e-7 absolute
		// in the worst perfectly-flat case); the accept margin of a true
		// singleton is ~1e-2, so the guard band costs nothing.
		tol := 1e-5 + 1e-9*q
		sdHi := math.Sqrt(vq)
		mLo := math.Sqrt(mLo2)
		if sdHi+tol <= 3*noiseSigma+0.02*(mLo-tol) {
			return true
		}
	}
	// Inconclusive: run the scalar test's exact operation sequence.
	var sum, sumsq float64
	for k := 0; k < n; k++ {
		msq := re[k]*re[k] + im[k]*im[k]
		sum += math.Sqrt(msq)
		sumsq += msq
	}
	mean := sum / nf
	varsum := sumsq/nf - mean*mean
	if varsum < 0 {
		varsum = 0
	}
	sd := math.Sqrt(varsum)
	return sd <= 3*noiseSigma+0.02*mean
}

// EstimateGainsPlane is GainScratch.EstimateGains over planes: it builds
// the normal equations (R^H R) g = R^H y with fused dot-product loops and
// solves the same small complex system. The Gram matrix is Hermitian, so
// only the upper triangle is computed; the mirrored entry a[j][i] =
// conj(a[i][j]) is bit-identical to the scalar path's independent dot
// product because negation is exact and IEEE rounding is sign-symmetric
// (the one corner case, an imaginary part that accumulates to exactly
// zero, is recomputed in scalar order). Self-products have an exactly-zero
// imaginary part in the scalar path too (each term is p - p for the same
// rounded product p), so they are stored as real. The result is
// bit-identical to EstimateGains on the interleaved inputs.
func (s *GainScratch) EstimateGainsPlane(dst []complex128, mixed *Plane, refs []*Plane) []complex128 {
	m := len(refs)
	if m == 0 {
		return nil
	}
	if cap(s.buf) < m*m+m {
		s.buf = make([]complex128, m*m+m)
	}
	a := s.buf[:m*m]
	b := s.buf[m*m : m*m+m]
	n := mixed.Len()
	mr, mi := mixed.Re[:n], mixed.Im[:n]
	for i := 0; i < m; i++ {
		// Fused pass: the reference's self-energy and its correlation with
		// the recording share one loop (three independent accumulator
		// chains, each in the scalar path's per-sample order).
		xr, xi := refs[i].Re[:n], refs[i].Im[:n]
		var sr, br, bi float64
		for k := range xr {
			r, q := xr[k], xi[k]
			sr += r*r + q*q
			br += r*mr[k] + q*mi[k]
			bi += r*mi[k] - q*mr[k]
		}
		a[i*m+i] = complex(sr, 0)
		b[i] = complex(br, bi)
		for j := i + 1; j < m; j++ {
			ur, ui := refs[j].Re[:n], refs[j].Im[:n]
			var dr, di float64
			for k := range xr {
				r, q := xr[k], xi[k]
				dr += r*ur[k] + q*ui[k]
				di += r*ui[k] - q*ur[k]
			}
			a[i*m+j] = complex(dr, di)
			if di == 0 {
				// An exactly-zero imaginary part can carry a different zero
				// sign through the mirrored accumulation; recompute the
				// transposed dot's imaginary part in its own scalar order.
				di = 0
				for k := range xr {
					di += ur[k]*xi[k] - ui[k]*xr[k]
				}
				a[j*m+i] = complex(dr, di)
			} else {
				a[j*m+i] = complex(dr, -di)
			}
		}
	}
	if cap(dst) < m {
		dst = make([]complex128, m)
	}
	dst = dst[:m]
	if !solveComplex(a, b, dst, m) {
		return nil
	}
	return dst
}

// CancelIntoPlane is CancelInto over planes: dst = mixed - sum_k gains[k] *
// refs[k], with the scalar loop's per-reference, per-sample operation
// order. dst must not alias any of the refs; it may be (and typically is)
// a reusable buffer.
func CancelIntoPlane(dst, mixed *Plane, refs []*Plane, gains []complex128) *Plane {
	n := mixed.Len()
	if dst != mixed {
		dst.CopyFrom(mixed)
	}
	dr, di := dst.Re[:n], dst.Im[:n]
	for k, ref := range refs {
		g := gains[k]
		gr, gi := real(g), imag(g)
		rr, ri := ref.Re[:n], ref.Im[:n]
		for i := range dr {
			sr, si := rr[i], ri[i]
			dr[i] -= sr*gr - si*gi
			di[i] -= sr*gi + si*gr
		}
	}
	return dst
}

// offsetCorrelationPlane is offsetCorrelation over planes.
func offsetCorrelationPlane(mixed, ref *Plane, dw float64) float64 {
	rot := cmplx.Exp(complex(0, dw))
	phase := complex(1, 0)
	n := ref.Len()
	rr, ri := ref.Re[:n], ref.Im[:n]
	mr, mi := mixed.Re[:n], mixed.Im[:n]
	var dotr, doti float64
	for k := range rr {
		pr, pi := real(phase), imag(phase)
		sr, si := rr[k], ri[k]
		tr := sr*pr - si*pi
		ti := sr*pi + si*pr
		dotr += tr*mr[k] + ti*mi[k]
		doti += tr*mi[k] - ti*mr[k]
		phase *= rot
	}
	return cmplx.Abs(complex(dotr, doti))
}

// lsGainAtOffsetPlane is lsGainAtOffset over planes.
func lsGainAtOffsetPlane(mixed, ref *Plane, dw float64) complex128 {
	rot := cmplx.Exp(complex(0, dw))
	phase := complex(1, 0)
	n := ref.Len()
	rr, ri := ref.Re[:n], ref.Im[:n]
	mr, mi := mixed.Re[:n], mixed.Im[:n]
	var dotr, doti, er float64
	for k := range rr {
		pr, pi := real(phase), imag(phase)
		sr, si := rr[k], ri[k]
		tr := sr*pr - si*pi
		ti := sr*pi + si*pr
		dotr += tr*mr[k] + ti*mi[k]
		doti += tr*mi[k] - ti*mr[k]
		er += tr*tr + ti*ti
		phase *= rot
	}
	energy := complex(er, 0)
	if energy == 0 {
		return 0
	}
	return complex(dotr, doti) / energy
}

// EstimateGainAndOffsetPlane is EstimateGainAndOffset over planes: the
// same coarse scan plus golden-section refinement, evaluating the plane
// correlation kernel.
func EstimateGainAndOffsetPlane(mixed, ref *Plane, spb int) (gain complex128, offset float64) {
	if mixed.Len() != ref.Len() || ref.Len() == 0 {
		return 0, 0
	}
	bound := maxOffsetSearch(spb)
	step := math.Pi / (2 * float64(ref.Len()))
	best, bestMag := 0.0, -1.0
	for dw := -bound; dw <= bound; dw += step {
		if mag := offsetCorrelationPlane(mixed, ref, dw); mag > bestMag {
			bestMag, best = mag, dw
		}
	}
	lo, hi := best-step, best+step
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := offsetCorrelationPlane(mixed, ref, a), offsetCorrelationPlane(mixed, ref, b)
	for i := 0; i < 40; i++ {
		if fa < fb {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = offsetCorrelationPlane(mixed, ref, b)
		} else {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = offsetCorrelationPlane(mixed, ref, a)
		}
	}
	offset = (lo + hi) / 2
	gain = lsGainAtOffsetPlane(mixed, ref, offset)
	return gain, offset
}

// CancelWithOffsetIntoPlane is CancelWithOffsetInto over planes:
// dst[n] = mixed[n] - gain * phase_n * ref[n] with phase_n the running
// offset rotation. dst may be mixed itself (in-place peeling); it must not
// alias ref.
func CancelWithOffsetIntoPlane(dst, mixed, ref *Plane, gain complex128, offset float64) *Plane {
	n := mixed.Len()
	if dst != mixed {
		dst.CopyFrom(mixed)
	}
	rot := cmplx.Exp(complex(0, offset))
	phase := complex(1, 0)
	dr, di := dst.Re[:n], dst.Im[:n]
	rr, ri := ref.Re[:n], ref.Im[:n]
	for k := range dr {
		gp := gain * phase
		gr, gi := real(gp), imag(gp)
		sr, si := rr[k], ri[k]
		dr[k] -= gr*sr - gi*si
		di[k] -= gr*si + gi*sr
		phase *= rot
	}
	return dst
}
