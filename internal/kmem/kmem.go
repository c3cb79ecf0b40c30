// Package kmem models physical-memory page accounting for a monolithic
// kernel, following the categories of the paper's Figure 1 memory-dump
// experiment (§2.3) and Linux's mm/memory-failure.c handling:
//
//   - KernelIgnored: kernel data that is unrecoverable when hit by a memory
//     fault (kernel text, page tables, slab, stacks, struct page array) —
//     Linux's memory fault-tolerance must ignore errors there, and the
//     kernel dies.
//   - KernelDelayed: kernel memory whose loss Linux can survive without
//     immediate failure (clean page cache, reclaimable buffers) — handling
//     is delayed.
//   - User: user-space pages; a fault there kills the owning application.
//   - Free: unused pages; a fault there is absorbed by offlining the page.
//
// The package also decides the outcome of a memory fault given the page
// class it strikes, which drives both the Figure 1 reproduction and the
// fault-injection experiments.
package kmem

import (
	"errors"
	"fmt"
)

// PageClass classifies a physical page by owner and recoverability.
type PageClass int

const (
	// Free is an unallocated page.
	Free PageClass = iota + 1
	// KernelIgnored is unrecoverable kernel memory ("Ignored" in Fig. 1).
	KernelIgnored
	// KernelDelayed is recoverable kernel memory ("Delayed" in Fig. 1).
	KernelDelayed
	// User is application memory ("User" in Fig. 1).
	User

	numClasses = int(User) + 1
)

var classNames = map[PageClass]string{
	Free:          "free",
	KernelIgnored: "ignored",
	KernelDelayed: "delayed",
	User:          "user",
}

func (c PageClass) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("PageClass(%d)", int(c))
}

// ErrNoMemory is returned by Alloc when not enough free pages remain.
var ErrNoMemory = errors.New("kmem: out of memory")

// Accounting tracks how a kernel's physical memory is divided among page
// classes. All quantities are in bytes, rounded up to whole pages.
type Accounting struct {
	pageSize int64
	total    int64 // pages
	pages    [numClasses]int64
}

// NewAccounting creates accounting for totalBytes of RAM with the given
// page size. All memory starts Free.
func NewAccounting(totalBytes, pageSize int64) *Accounting {
	if pageSize <= 0 || totalBytes < pageSize {
		panic(fmt.Sprintf("kmem: bad accounting size total=%d page=%d", totalBytes, pageSize))
	}
	a := &Accounting{pageSize: pageSize, total: totalBytes / pageSize}
	a.pages[Free] = a.total
	return a
}

// TotalBytes reports the total accounted RAM in bytes.
func (a *Accounting) TotalBytes() int64 { return a.total * a.pageSize }

func (a *Accounting) npages(bytes int64) int64 {
	return (bytes + a.pageSize - 1) / a.pageSize
}

// Alloc moves enough free pages to hold bytes into the given class. It
// fails with ErrNoMemory (wrapped with context) if free memory is short.
func (a *Accounting) Alloc(class PageClass, bytes int64) error {
	if class == Free {
		panic("kmem: Alloc(Free)")
	}
	n := a.npages(bytes)
	if n > a.pages[Free] {
		return fmt.Errorf("kmem: alloc %d bytes as %v: %w (free: %d bytes)",
			bytes, class, ErrNoMemory, a.pages[Free]*a.pageSize)
	}
	a.pages[Free] -= n
	a.pages[class] += n
	return nil
}

// Reclassify moves bytes worth of pages from one class to another (e.g.
// page cache pages becoming user pages after a write). It fails if the
// source class is short.
func (a *Accounting) Reclassify(from, to PageClass, bytes int64) error {
	n := a.npages(bytes)
	if n > a.pages[from] {
		return fmt.Errorf("kmem: reclassify %d bytes %v->%v: only %d bytes in source",
			bytes, from, to, a.pages[from]*a.pageSize)
	}
	a.pages[from] -= n
	a.pages[to] += n
	return nil
}

// Freeing returns bytes worth of pages from class back to Free. It fails if
// the class is short.
func (a *Accounting) Freeing(class PageClass, bytes int64) error {
	return a.Reclassify(class, Free, bytes)
}

// Bytes reports the bytes currently accounted to the class.
func (a *Accounting) Bytes(class PageClass) int64 { return a.pages[class] * a.pageSize }

// Fraction reports the share of total RAM accounted to the class, in [0,1].
func (a *Accounting) Fraction(class PageClass) float64 {
	return float64(a.pages[class]) / float64(a.total)
}

// Snapshot is a point-in-time copy of the accounting, in bytes.
type Snapshot struct {
	Total   int64
	Free    int64
	Ignored int64
	Delayed int64
	User    int64
}

// Snapshot returns the current byte counts per class.
func (a *Accounting) Snapshot() Snapshot {
	return Snapshot{
		Total:   a.TotalBytes(),
		Free:    a.Bytes(Free),
		Ignored: a.Bytes(KernelIgnored),
		Delayed: a.Bytes(KernelDelayed),
		User:    a.Bytes(User),
	}
}

// ClassifyAddr maps a physical byte offset in [0, TotalBytes) to the page
// class it would strike, laying classes out contiguously in the order
// Ignored, Delayed, User, Free. The layout is synthetic but class-
// probability-exact: a uniformly random address hits each class with
// probability equal to its occupancy share, which is what the fault-outcome
// experiments need.
func (a *Accounting) ClassifyAddr(addr int64) (PageClass, error) {
	if addr < 0 || addr >= a.TotalBytes() {
		return 0, fmt.Errorf("kmem: address %#x outside RAM of %d bytes", addr, a.TotalBytes())
	}
	page := addr / a.pageSize
	for _, c := range []PageClass{KernelIgnored, KernelDelayed, User, Free} {
		if page < a.pages[c] {
			return c, nil
		}
		page -= a.pages[c]
	}
	// Unreachable: the class counts always sum to total.
	return Free, nil
}

// Outcome is the effect of a memory fault on the software stack.
type Outcome int

const (
	// OutcomeNone: the fault was absorbed (corrected error, or a free page
	// that the kernel offlines).
	OutcomeNone Outcome = iota + 1
	// OutcomeKernelPanic: the fault hit unrecoverable kernel memory; the
	// whole kernel (and every application on it) dies.
	OutcomeKernelPanic
	// OutcomeDelayed: the fault hit recoverable kernel memory; the kernel
	// continues operation without immediate failure.
	OutcomeDelayed
	// OutcomeUserKill: the fault hit an application page; the application
	// is killed.
	OutcomeUserKill
)

var outcomeNames = map[Outcome]string{
	OutcomeNone:        "none",
	OutcomeKernelPanic: "kernel-panic",
	OutcomeDelayed:     "delayed",
	OutcomeUserKill:    "user-kill",
}

func (o Outcome) String() string {
	if s, ok := outcomeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// OutcomeOf decides what a memory fault does given the page class it hits
// and whether the error was corrected by ECC.
func OutcomeOf(class PageClass, corrected bool) Outcome {
	if corrected {
		return OutcomeNone
	}
	switch class {
	case KernelIgnored:
		return OutcomeKernelPanic
	case KernelDelayed:
		return OutcomeDelayed
	case User:
		return OutcomeUserKill
	default:
		return OutcomeNone
	}
}
