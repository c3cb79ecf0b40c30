// Package nondet flags raw nondeterminism sources in replicated code. It
// is cmd/ftvet's one checker: Check runs it over a package set.
//
// The record/replay protocol only works if every nondeterministic input
// the application observes flows through the replication layer: clock
// reads are replicated as gettimeofday tuples precisely so both replicas
// agree on time (§3.3), thread identity is the replicated ft_pid, and
// random draws must come from a simulation domain's seeded stream. A direct
// time.Now(), os.Getpid(), or math/rand call in replicated code gives
// the primary and the secondary different values — a silent divergence
// that surfaces only as a replay mismatch long after the fact.
//
// nondet applies to the replicated packages (internal/apps/...,
// internal/pthread, internal/tcprep) and flags:
//
//   - time.Now / time.Since — use the replicated clock
//     (*replication.Thread).Now or the kernel clock (*kernel.Kernel).Now
//   - os.Getpid — use the replicated thread identity
//     (*replication.Thread).FTPid
//   - any package-level use of math/rand, rand.New* included — use a
//     domain's seeded deterministic stream (sim.Group.Rand); method
//     calls on a *rand.Rand obtained from a domain are sanctioned
//   - a go statement — the goroutine's interleaving is the Go runtime's,
//     not the seed's; spawn a replicated thread
//     (replication.Namespace.SpawnThread)
//   - map-range iteration whose loop variables escape into ordered
//     output (append, channel send, string concatenation, or a
//     send/write/emit-like call, including the zero-copy fabric's
//     Span.Put/Commit/Reserve): Go randomizes map iteration order per
//     process, so replicas emit different sequences. Iterate a sorted
//     key slice instead. Commutative aggregation (numeric +=, map
//     writes, len) is not flagged, and neither is the collect-then-sort
//     idiom — appending into a slice that is sorted (sort.* /
//     slices.Sort*) later in the same function.
//
// The repro/internal/obs API is a sanctioned sink: its events are local
// observability, never part of the replicated log, so an Emit inside
// replicated code is not an ordered-output escape. The API carries its
// own, stricter determinism contract instead — trace attributes must be
// derived from simulation state so same-seed traces are byte-identical —
// and nondet enforces that side in EVERY package (replicated or not): a
// time.Now or time.Since smuggled into the arguments of an obs call is
// diagnosed as a trace-determinism violation.
package nondet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis/flow"
	"repro/internal/analysis/ftvet"
)

// replicatedPrefixes lists the package paths ftvet treats as replicated
// application code. Entries ending in "/" match a whole subtree.
var replicatedPrefixes = []string{
	"repro/internal/apps/",
	"repro/internal/pthread",
	"repro/internal/tcprep",
}

// orderedSink matches call names that serialize their arguments into an
// ordered stream visible to the other replica. Put, commit and reserve
// cover the zero-copy fabric idiom: a Span.Put writes the payload in
// place at its reserved ring position, so its argument order is exactly
// the publication order the other replica replays.
var orderedSink = regexp.MustCompile(`(?i)^(send|write|emit|record|print|printf|println|log|sync|push|put|append|enqueue|trysync|fprintf|commit|reserve)`)

// obsPath is the observability package. Its calls are a sanctioned sink
// (events are local, not replicated state), but their arguments must be
// deterministic — they travel into traces compared byte-for-byte across
// same-seed runs. causalPath is the causality/diagnosis layer built on
// top of it: same sanction, same argument rule (diagnosis annotations
// land in golden-pinned reports).
const (
	obsPath    = "repro/internal/obs"
	causalPath = "repro/internal/obs/causal"
)

// sanctionedObs reports whether a package path is one of the
// observability sinks whose calls are exempt from the ordered-sink rule
// but whose arguments checkObsAttrs still vets.
func sanctionedObs(path string) bool {
	return path == obsPath || path == causalPath
}

// Name is the rule nondet reports under and an //ftvet:allow names.
const Name = "nondet"

// Doc describes the rule (the SARIF log's rule description).
const Doc = "flag raw nondeterminism (time.Now, time.Since, os.Getpid, math/rand, " +
	"go statements, order-escaping map ranges) in replicated packages; replicated code must " +
	"use the sanctioned wrappers so both replicas observe identical values (§3.3)"

// Check runs nondet over pkgs, with the interprocedural engine built once
// over the whole set, and returns the findings that no //ftvet:allow
// covers, malformed allows among them, sorted by position.
func Check(fset *token.FileSet, pkgs []*ftvet.Package) []ftvet.Diagnostic {
	c := &checker{g: flow.Build(fset, pkgs)}
	for _, pkg := range pkgs {
		c.pkg = pkg
		c.check()
	}
	return ftvet.ApplyAllows(fset, pkgs, Name, c.diags)
}

// checker carries one Check: the engine, the package being walked and
// the findings so far.
type checker struct {
	g     *flow.Graph
	pkg   *ftvet.Package
	diags []ftvet.Diagnostic
}

func (c *checker) report(pos token.Pos, msg string, trace []ftvet.TraceStep) {
	c.diags = append(c.diags, ftvet.Diagnostic{Rule: Name, Pos: pos, Message: msg, Trace: trace})
}

// Replicated reports whether a package path is subject to the nondet
// invariant.
func Replicated(path string) bool {
	for _, p := range replicatedPrefixes {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

func (c *checker) check() {
	pkg := c.pkg
	replicated := Replicated(pkg.Path)
	if sanctionedObs(pkg.Path) {
		return // the sinks themselves; their determinism is covered by their tests
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if replicated {
					c.checkQualified(n)
				}
			case *ast.GoStmt:
				if replicated {
					c.report(n.Go, "a go statement in replicated code runs a goroutine the Go runtime schedules, not the seed, so its interleaving diverges across replicas; spawn a replicated thread (replication.Namespace.SpawnThread)", nil)
				}
			case *ast.CallExpr:
				// In replicated packages checkQualified already flags every
				// time.Now/Since; the obs-argument check covers the rest of
				// the tree, where wall-clock reads are otherwise legal.
				if !replicated {
					c.checkObsAttrs(n)
				}
			}
			return true
		})
		if !replicated {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok {
					c.checkMapRange(rs, fd.Body)
				}
				return true
			})
			c.checkCallChains(fd)
		}
	}
}

// checkCallChains is the interprocedural layer: nondeterminism that
// enters a replicated function through a helper defined elsewhere. Two
// shapes, both invisible to the syntactic checks above:
//
//   - a call to a function (outside the replicated packages, where the
//     source itself is legal) whose results carry a wall-clock, pid, or
//     rand taint — observing the value is the divergence, so the call
//     site is reported with the full chain to the source;
//   - a value carrying map-order taint from a helper's map range,
//     escaping into an ordered sink here (channel send, string
//     concatenation, or a send/write/emit-like call) — the intra rule
//     only sees ranges in the same function.
//
// Sources inside replicated packages are not re-reported through calls:
// checkQualified already flags them where they occur.
func (c *checker) checkCallChains(fd *ast.FuncDecl) {
	pkg := c.pkg
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	node := c.g.NodeOf(fn)
	if node == nil {
		return
	}
	env := c.g.FuncEnv(node)

	reportTaint := func(pos token.Pos, t flow.Taint, what string) {
		var msg string
		switch t.Kind {
		case flow.TaintClock:
			msg = fmt.Sprintf("%s carries a wall-clock value (%s) into replicated code and diverges across replicas; use the replicated gettimeofday (*replication.Thread).Now or the kernel clock (*kernel.Kernel).Now (§3.3)", what, t.Path())
		case flow.TaintPid:
			msg = fmt.Sprintf("%s carries the raw process id (%s) into replicated code; use the replicated thread identity (*replication.Thread).FTPid", what, t.Path())
		case flow.TaintRand:
			msg = fmt.Sprintf("%s carries a package-level math/rand draw (%s) into replicated code, seeded per process; use a domain's deterministic stream (sim.Group.Rand)", what, t.Path())
		default:
			return
		}
		c.report(pos, msg, t.Trace())
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := pkg.CalleeFunc(n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			// Direct observation of a tainted result. Callees in
			// replicated packages are skipped: checkQualified already
			// flags the source where it occurs.
			if !Replicated(fn.Pkg().Path()) {
				for _, t := range env.CallTaints(n) {
					if t.Kind != flow.TaintMapOrder {
						reportTaint(n.Pos(), t, "call to "+fn.Name())
					}
				}
			}
			// Map-order taint reaching an ordered sink as an argument.
			name := calleeName(n)
			if name == "" || name == "append" || !orderedSink.MatchString(name) {
				return true
			}
			if sanctionedObs(fn.Pkg().Path()) {
				return true
			}
			for _, a := range n.Args {
				for _, t := range env.ExprTaints(a) {
					if t.Kind == flow.TaintMapOrder && len(t.Via) > 0 {
						c.report(n.Pos(),
							fmt.Sprintf("map iteration order from a helper (%s) escapes into replicated output via %s and diverges across replicas (Go randomizes map order per process); sort before emitting", t.Path(), name),
							t.Trace())
						return true
					}
				}
			}
		case *ast.SendStmt:
			for _, t := range env.ExprTaints(n.Value) {
				if t.Kind == flow.TaintMapOrder && len(t.Via) > 0 {
					c.report(n.Pos(),
						fmt.Sprintf("map iteration order from a helper (%s) escapes into replicated output via a channel send and diverges across replicas (Go randomizes map order per process); sort before emitting", t.Path()),
						t.Trace())
					return true
				}
			}
		}
		return true
	})
}

// checkObsAttrs diagnoses wall-clock values smuggled into the arguments
// of an obs call: trace attributes must derive from simulation state so
// same-seed traces stay byte-identical. Applied outside the replicated
// packages (inside them, checkQualified flags the same calls anywhere).
func (c *checker) checkObsAttrs(call *ast.CallExpr) {
	pkg := c.pkg
	fn := pkg.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !sanctionedObs(fn.Pkg().Path()) {
		return
	}
	for _, a := range call.Args {
		ast.Inspect(a, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if t, ok := flow.Source(pkg, sel); ok && t.Kind == flow.TaintClock {
					c.report(sel.Pos(), t.Desc+" in an obs trace attribute: wall-clock values differ per run and break byte-reproducible traces; derive attributes from the virtual clock (sim.Simulation.Now)", nil)
				}
			}
			return true
		})
	}
}

// checkQualified flags a pkgname.Ident reference to one of flow's sources,
// rand.New* included (see flow.Source). Only qualified identifiers are
// considered, so a method call on a *rand.Rand value handed out by a
// domain is not flagged — that stream is a function of the seed and the
// domain's name.
func (c *checker) checkQualified(sel *ast.SelectorExpr) {
	t, ok := flow.Source(c.pkg, sel)
	if !ok {
		return
	}
	var msg string
	switch t.Kind {
	case flow.TaintClock:
		msg = "time.Now in replicated code reads the local clock and diverges across replicas; use the replicated gettimeofday (*replication.Thread).Now or the kernel clock (*kernel.Kernel).Now (§3.3)"
		if t.Desc == "time.Since" {
			msg = "time.Since reads the local clock and diverges across replicas; compute deltas from the replicated clock (*replication.Thread).Now (§3.3)"
		}
	case flow.TaintPid:
		msg = "os.Getpid is not replicated and differs across replicas; use the replicated thread identity (*replication.Thread).FTPid"
	case flow.TaintRand:
		msg = "package-level math/rand draws are seeded per process and diverge across replicas; use a domain's deterministic stream (sim.Group.Rand)"
	}
	c.report(sel.Pos(), msg, nil)
}

// checkMapRange flags map iteration whose loop variables flow into an
// ordered sink, making the (randomized) iteration order observable.
// body is the enclosing function body, used to recognize the
// collect-then-sort idiom.
func (c *checker) checkMapRange(rs *ast.RangeStmt, body *ast.BlockStmt) {
	pkg := c.pkg
	t := pkg.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pkg.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				loopVars[obj] = true // range assigns to an existing variable
			}
		}
	}
	if len(loopVars) == 0 {
		return
	}
	derived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[pkg.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	report := func(sink string) {
		c.report(rs.For, fmt.Sprintf("map iteration order escapes into replicated output via %s and diverges across replicas (Go randomizes map order per process); iterate a sorted key slice instead", sink), nil)
	}
	flagged := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if flagged {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if derived(n.Value) {
				report("a channel send")
				flagged = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Rhs) == 1 && derived(n.Rhs[0]) {
				if lt := pkg.TypeOf(n.Lhs[0]); lt != nil {
					if b, ok := lt.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report("string concatenation")
						flagged = true
					}
				}
			}
		case *ast.CallExpr:
			name := calleeName(n)
			if name == "" {
				return true
			}
			argDerived := false
			for _, a := range n.Args {
				if derived(a) {
					argDerived = true
					break
				}
			}
			if !argDerived {
				return true
			}
			if name == "append" {
				if sortedAfter(pkg, body, rs, n.Args[0]) {
					return true // collect-then-sort: order is re-established
				}
				report("append")
				flagged = true
			} else if fn := pkg.CalleeFunc(n); fn != nil && orderedSink.MatchString(name) {
				if fn.Pkg() != nil && sanctionedObs(fn.Pkg().Path()) {
					return true // sanctioned sink: obs events are not replicated state
				}
				report(name)
				flagged = true
			}
		}
		return !flagged
	})
}

// sortedAfter reports whether the slice collected by an in-loop append
// is passed to a sort.* or slices.* call after the range statement in
// the same function — the deterministic collect-then-sort idiom.
func sortedAfter(pkg *ftvet.Package, body *ast.BlockStmt, rs *ast.RangeStmt, slice ast.Expr) bool {
	id, ok := ast.Unparen(slice).(*ast.Ident)
	if !ok {
		return false
	}
	target := pkg.ObjectOf(id)
	if target == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := pkg.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if aid, ok := ast.Unparen(a).(*ast.Ident); ok && pkg.ObjectOf(aid) == target {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
