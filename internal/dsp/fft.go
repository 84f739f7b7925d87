// Package dsp provides the signal-processing substrate for the RF
// transceiver models: a radix-2 FFT, window functions and Welch power
// spectral density estimation, all stdlib-only.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the in-place decimation-in-time radix-2 FFT of x. The
// length of x must be a power of two.
func FFT(x []complex128) {
	fftDirection(x, false)
}

// IFFT computes the inverse FFT of x (normalized by 1/N).
func IFFT(x []complex128) {
	fftDirection(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func fftDirection(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := mul(x[start+k+half], w)
				x[start+k] = a + b
				x[start+k+half] = a - b
				w = mul(w, wBase)
			}
		}
	}
}

// mul is the complex product a*b in the operations, and the order, of
// Go's complex128 multiply, with every real product rounded by an
// explicit float64(...) so that no platform fuses it into a multiply-add
// and every host computes the same spectrum.
func mul(a, b complex128) complex128 {
	return complex(float64(real(a)*real(b))-float64(imag(a)*imag(b)), float64(real(a)*imag(b))+float64(imag(a)*real(b)))
}

// Hann fills a Hann window of length n and returns it together with its
// power normalization factor sum(w^2).
func Hann(n int) ([]float64, float64) {
	w := make([]float64, n)
	var p float64
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		p += float64(w[i] * w[i])
	}
	return w, p
}

// Welch estimates the one-sided-equivalent power spectral density of the
// complex baseband signal x sampled at fs, using Hann-windowed segments
// of length segLen with 50% overlap. The result has segLen bins spanning
// [-fs/2, fs/2) after FFT-shift; use BinFreq to map indexes to
// frequencies. Units: power per Hz.
func Welch(x []complex128, fs float64, segLen int) []float64 {
	if segLen <= 0 || segLen&(segLen-1) != 0 {
		panic("dsp: segment length must be a power of two")
	}
	if len(x) < segLen {
		panic("dsp: signal shorter than one segment")
	}
	w, wp := Hann(segLen)
	hop := segLen / 2
	acc := make([]float64, segLen)
	seg := make([]complex128, segLen)
	count := 0
	for start := 0; start+segLen <= len(x); start += hop {
		for i := 0; i < segLen; i++ {
			seg[i] = mul(x[start+i], complex(w[i], 0))
		}
		FFT(seg)
		for i, v := range seg {
			p := float64(real(v)*real(v)) + float64(imag(v)*imag(v))
			acc[i] += p
		}
		count++
	}
	// Normalize: divide by window power, segment count and fs.
	scale := 1.0 / (wp * float64(count) * fs)
	psd := make([]float64, segLen)
	// FFT-shift so index 0 is -fs/2.
	half := segLen / 2
	for i := range acc {
		psd[(i+half)%segLen] = acc[i] * scale
	}
	return psd
}

// BinFreq maps a Welch output index to its frequency in Hz for the given
// sampling rate and segment length (index 0 = -fs/2).
func BinFreq(i, segLen int, fs float64) float64 {
	return (float64(i) - float64(segLen)/2) * fs / float64(segLen)
}

// PSDAt returns the PSD value at the bin nearest to freq Hz.
func PSDAt(psd []float64, freq, fs float64) float64 {
	segLen := len(psd)
	i := int(math.Round(freq/fs*float64(segLen))) + segLen/2
	if i < 0 {
		i = 0
	}
	if i >= segLen {
		i = segLen - 1
	}
	return psd[i]
}

// DB converts a power ratio to decibels.
func DB(p float64) float64 { return float64(10 * math.Log10(p)) }

// FromDB converts decibels to a power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }
