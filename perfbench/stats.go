package main

import (
	"math"
	"slices"
	"syscall"
)

// quartiles returns the first quartile, median and third quartile of xs.
// Quartiles use the exclusive method, the default of Python's
// statistics.quantiles, so they agree with spread checks made that way.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	return quantile(s, 0.25), median(s), quantile(s, 0.75)
}

// quantile is the exclusive-method p-quantile of sorted data (len >= 2).
func quantile(s []float64, p float64) float64 {
	pos := p * float64(len(s)+1)
	j := min(max(int(math.Floor(pos)), 1), len(s)-1)
	return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank pct-th percentile of xs and how
// many samples lie above it.
func percentile(xs []float64, pct float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Sorted(slices.Values(xs))
	k := min(max(int(math.Ceil(pct/100*float64(len(s))))-1, 0), len(s)-1)
	for _, x := range s[k+1:] {
		if x > s[k] {
			beyond++
		}
	}
	return s[k], beyond
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
