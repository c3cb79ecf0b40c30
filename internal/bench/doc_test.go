package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesRecord: every table EXPERIMENTS.md shows — a
// fenced block tagged <!-- ftbench:<exp> --> — is a contiguous run of lines
// of the table that experiment's entry of experiments.json renders, the
// record `make experiments` regenerates and CI diffs. The prose can be
// wrong; the numbers it is about cannot be old. Every experiment has at
// least one such table, and every paper figure's ✅ and ⚠️ marks are its
// claims' verdicts on the record (checkClaimMarks).
func TestExperimentsDocMatchesRecord(t *testing.T) {
	doc := readRepoFile(t, "EXPERIMENTS.md")
	tables := make(map[string]string) // experiment -> its rendered table
	reports := make(map[string]*Report)
	for _, r := range recorded(t) {
		var b strings.Builder
		r.Table(&b)
		tables[r.Exp] = "\n" + b.String()
		reports[r.Exp] = &r
	}
	checkClaimMarks(t, doc, reports)
	quoted := make(map[string]int)
	tagged := regexp.MustCompile("(?m)^<!-- ftbench:(\\w+) -->\n```\n((?:.*\n)*?)```$")
	for _, m := range tagged.FindAllStringSubmatch(doc, -1) {
		e, ok := Lookup(m[1])
		if !ok {
			t.Errorf("table tagged ftbench:%s: no such experiment", m[1])
			continue
		}
		quoted[e.Name]++
		if m[2] == "" || !strings.Contains(tables[e.Name], "\n"+m[2]) {
			t.Errorf("table tagged ftbench:%s is not in the table of experiments.json's %s entry:\n%s", m[1], e.Name, m[2])
		}
	}
	tags := regexp.MustCompile("(?m)^<!-- ftbench:").FindAllString(doc, -1)
	if blocks := tagged.FindAllString(doc, -1); len(tags) != len(blocks) {
		t.Errorf("%d ftbench tags, but only %d are followed by a fenced block", len(tags), len(blocks))
	}
	for _, e := range Experiments {
		if quoted[e.Name] == 0 {
			t.Errorf("EXPERIMENTS.md quotes no table of %s", e.Name)
		}
	}
}

// TestDesignInventoryMatchesTree: DESIGN.md §3's table and internal/ name
// the same packages — every row is a directory, and every directory under
// internal/ has a row or, holding no package itself, each of its
// subdirectories does (internal/apps).
func TestDesignInventoryMatchesTree(t *testing.T) {
	_, section, _ := strings.Cut(readRepoFile(t, "DESIGN.md"), "\n## 3. ")
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| \\d+ \\| `(internal/[\\w/]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
		if st, err := os.Stat("../../" + m[1]); err != nil || !st.IsDir() {
			t.Errorf("DESIGN.md §3 lists %s, which is not a directory", m[1])
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §3 holds no inventory rows")
	}
	var check func(dir string)
	check = func(dir string) {
		if rows[dir] {
			return
		}
		entries, err := os.ReadDir("../../" + dir)
		if err != nil {
			t.Fatal(err)
		}
		var subdirs []string
		for _, e := range entries {
			if e.IsDir() {
				subdirs = append(subdirs, dir+"/"+e.Name())
			} else if strings.HasSuffix(e.Name(), ".go") {
				subdirs = nil // a package of its own: its subdirectories' rows do not cover it
				break
			}
		}
		if len(subdirs) == 0 {
			t.Errorf("%s has no row in DESIGN.md §3", dir)
		}
		for _, sub := range subdirs {
			check(sub)
		}
	}
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			check("internal/" + e.Name())
		}
	}
}

// The docs a reader navigates by, checked name by name against the tree:
// DESIGN.md, the README, EXPERIMENTS.md and the build-and-verify notes.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocNamesResolve: every name the docs cite still exists, so a rename
// or a deletion cannot leave them describing code that is gone. It checks,
// and reports as one numbered list of findings:
//
//   - in the four citingDocs, every backticked `Test*`/`Benchmark*` (a
//     top-level func of some _test.go file, of the named package if
//     qualified), `pkg.Ident` or `pkg.Type.Member` whose pkg is a package
//     of this module (a top-level declaration, or a method or field of a
//     type of that package; a name the program spells as a string, such
//     as a metric or ring name, is not one), and `*.go` path (from the
//     repo root, or a bare file name that exists somewhere in the tree);
//   - every "DESIGN.md §N" citation in the module's Go files, the
//     Makefile, CI and the four docs, against DESIGN.md's "## N." headings;
//   - every `go test -run` pattern in CI and the Makefile: each
//     |-alternative matches a Test func of the packages the command lists;
//   - every DESIGN.md section from §9 on states its **Invariant**, its
//     **Mechanism** and the `Test*` it is **Pinned by**, and no DESIGN.md
//     table has a parent, change, here, before or after column: DESIGN.md
//     says what holds, and CHANGES.md records how the numbers moved.
func TestDocNamesResolve(t *testing.T) {
	ix := indexTree(t)
	var found []string
	for _, doc := range citingDocs {
		text := readRepoFile(t, doc)
		found = append(found, ix.names(doc, text)...)
		found = append(found, ix.citations(doc, text)...)
	}
	design := readRepoFile(t, "DESIGN.md")
	found = append(found, sectionShapes("DESIGN.md", design)...)
	found = append(found, historyTables("DESIGN.md", design)...)
	for _, f := range []string{"Makefile", ".github/workflows/ci.yml"} {
		text := readRepoFile(t, f)
		found = append(found, ix.citations(f, text)...)
		found = append(found, ix.runPatterns(f, text)...)
	}
	for _, path := range slices.Sorted(maps.Keys(ix.goSources)) {
		found = append(found, ix.citations(path, ix.goSources[path])...)
	}
	reportFindings(t, found)
}

// TestDocCheckerReportsEachKind: the checker behind TestDocNamesResolve
// reports one planted bogus item of every kind it checks, and nothing for
// a real item of the same kind — so a check that stopped looking fails
// here, not silently in the docs.
func TestDocCheckerReportsEachKind(t *testing.T) {
	ix := indexTree(t)
	check := func(doc, ci string) []string {
		var found []string
		found = append(found, ix.names("doc.md", doc)...)
		found = append(found, ix.citations("doc.md", doc)...)
		found = append(found, sectionShapes("doc.md", doc)...)
		found = append(found, historyTables("doc.md", doc)...)
		found = append(found, ix.runPatterns("ci.yml", ci)...)
		return found
	}
	bogus := check(
		"Cites `TestNoSuchThing`, `sim.NoSuch`, `sim.Simulation.NoSuch` and `no/such.go`, and DESIGN.md §"+"99.\n\n"+
			"| parent | change |\n|---|---|\n| 1 | 2 |\n\n"+
			"## 9. Bogus\n\n**Invariant.** Something holds.\n\n**Mechanism.** Nothing pins it.\n",
		"      - run: go test -race -run 'DocNamesResolve|NoSuchModel' -count=20 ./internal/bench ./internal/sim\n")
	for _, tc := range []struct{ kind, want string }{
		{"test name", "`TestNoSuchThing`"},
		{"package-level name", "`sim.NoSuch`"},
		{"member name", "`sim.Simulation.NoSuch`"},
		{"go path", "`no/such.go`"},
		{"section citation", "§99"},
		{"history table", "| parent | change |"},
		{"run pattern", "NoSuchModel"},
		{"section without a pinning test", "§9 does not state"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			for _, f := range bogus {
				if strings.Contains(f, tc.want) {
					return
				}
			}
			t.Errorf("planted %s %s not reported; findings:\n%s", tc.kind, tc.want, strings.Join(bogus, "\n"))
		})
	}
	if len(bogus) != 8 {
		t.Errorf("%d findings for 8 planted items:\n%s", len(bogus), strings.Join(bogus, "\n"))
	}
	genuine := check(
		"Cites `TestDocNamesResolve`, `sim.Simulation`, `sim.Simulation.Now`, `kernel.SpawnStackless`, "+
			"`internal/bench/doc_test.go` and `doc_test.go`, and DESIGN.md §19, §21; `sys.Run` is a local "+
			"and `rejoin.bulk.gN` a ring name.\n\n"+
			"| plant | path |\n|---|---|\n| 1 | 2 |\n\n"+
			"## 9. Real\n\n**Invariant.** Names resolve.\n\n**Mechanism.** A parse.\n\n**Pinned by.** `TestDocNamesResolve`.\n",
		"      - run: go test -race -run 'DocNamesResolve|EngineMatchesReferenceQueue' ./internal/...\n")
	if len(genuine) != 0 {
		t.Errorf("real items reported:\n%s", strings.Join(genuine, "\n"))
	}
}

// reportFindings fails t with the findings as one numbered list.
func reportFindings(t *testing.T, found []string) {
	t.Helper()
	if len(found) == 0 {
		return
	}
	var b strings.Builder
	for i, f := range found {
		fmt.Fprintf(&b, "\n%d. %s", i+1, f)
	}
	t.Errorf("%d findings:%s", len(found), b.String())
}

func readRepoFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile("../../" + path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// docIndex is what the tree declares, as far as the docs can cite it.
type docIndex struct {
	decls     map[string]map[string]bool            // package name → top-level names, test files included
	members   map[string]map[string]map[string]bool // package name → type → its fields, methods and embedded types
	tests     map[string]map[string]bool            // package name → Test*/Benchmark* funcs of its _test.go files
	dirTests  map[string][]string                   // repo-relative dir → its Test* funcs
	files     map[string]bool                       // bare .go file names
	sections  map[string]bool                       // DESIGN.md's "## N." headings
	goSources map[string]string                     // repo-relative .go path → its text
	strs      []string                              // dotted string literals of non-test files: metric, ring and scope names
}

// indexTree parses every Go file of the module (testdata and hidden
// directories excluded) with go/parser, and DESIGN.md's headings.
func indexTree(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{
		decls:     make(map[string]map[string]bool),
		members:   make(map[string]map[string]map[string]bool),
		tests:     make(map[string]map[string]bool),
		dirTests:  make(map[string][]string),
		files:     make(map[string]bool),
		sections:  make(map[string]bool),
		goSources: make(map[string]string),
	}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(readRepoFile(t, "DESIGN.md"), -1) {
		ix.sections[m[1]] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, "../.."))
		rel = strings.TrimPrefix(rel, "/")
		if d.IsDir() {
			if rel != "" && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.files[d.Name()] = true
		ix.goSources[rel] = string(src)
		isTest := strings.HasSuffix(rel, "_test.go")
		ix.addFile(f, isTest, filepath.ToSlash(filepath.Dir(rel)))
		if !isTest {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(v, ".") {
						ix.strs = append(ix.strs, v)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (ix *docIndex) addFile(f *ast.File, isTest bool, dir string) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	set := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = make(map[string]bool)
		}
		m[k][name] = true
	}
	member := func(typ, name string) {
		if ix.members[pkg] == nil {
			ix.members[pkg] = make(map[string]map[string]bool)
		}
		set(ix.members[pkg], typ, name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				member(typeName(d.Recv.List[0].Type), name)
				continue
			}
			set(ix.decls, pkg, name)
			if isTest && (strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark")) {
				set(ix.tests, pkg, name)
				if strings.HasPrefix(name, "Test") {
					ix.dirTests[dir] = append(ix.dirTests[dir], name)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						set(ix.decls, pkg, n.Name)
					}
				case *ast.TypeSpec:
					set(ix.decls, pkg, s.Name.Name)
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							member(s.Name.Name, n.Name)
						}
						if len(fl.Names) == 0 { // embedded: its members are promoted
							member(s.Name.Name, "embeds "+typeName(fl.Type))
						}
					}
				}
			}
		}
	}
}

// typeName is the local name of a receiver or embedded type: T for T,
// *T, T[P] and pkg.T.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// hasMember reports whether typ of pkg has a field or method name, its
// own or promoted from a type it embeds.
func (ix *docIndex) hasMember(pkg, typ, name string, depth int) bool {
	ms := ix.members[pkg][typ]
	if ms[name] {
		return true
	}
	for m := range ms {
		if e, ok := strings.CutPrefix(m, "embeds "); ok && depth < 4 && ix.hasMember(pkg, e, name, depth+1) {
			return true
		}
	}
	return false
}

var (
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	fence       = regexp.MustCompile("(?ms)^```.*?^```")
	callArgs    = regexp.MustCompile(`\(.*\)$`)
	testName    = regexp.MustCompile(`^(?:([a-z][a-z0-9]*)\.)?((?:Test|Benchmark)[A-Z]\w*)(?:/\S*)?$`)
	goPath      = regexp.MustCompile(`^[\w./-]+\.go$`)
	qualified   = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?$`)
	designCite  = regexp.MustCompile(`DESIGN\.md\s+§\d+(?:(?:,\s*|\s+and\s+|\s+or\s+)§\d+)*`)
	sectionNum  = regexp.MustCompile(`§(\d+)`)
	runFlag     = regexp.MustCompile(`-run\s+(?:'([^']*)'|"([^"]*)"|(\S+))(.*)`)
	historyCol  = regexp.MustCompile(`\b(?:parent|change|here|before|after)\b`)
	pinningTest = regexp.MustCompile("`(?:[a-z][a-z0-9]*\\.)?Test[A-Z]")
	tableRule   = regexp.MustCompile(`^\|(?:\s*:?-+:?\s*\|)+\s*$`)
)

// names checks the backticked names of one doc.
func (ix *docIndex) names(doc, text string) []string {
	var found []string
	report := func(span, why string) { found = append(found, fmt.Sprintf("%s: `%s`: %s", doc, span, why)) }
	for _, m := range codeSpan.FindAllStringSubmatch(fence.ReplaceAllString(text, ""), -1) {
		span := strings.TrimSpace(m[1])
		name := callArgs.ReplaceAllString(span, "")
		switch {
		case testName.MatchString(name):
			tm := testName.FindStringSubmatch(name)
			pkg, fn := tm[1], tm[2]
			if pkg != "" {
				if !ix.tests[pkg][fn] {
					report(span, "no such test func in package "+pkg)
				}
				continue
			}
			if !ix.anyTest(fn) {
				report(span, "no such test func in any _test.go file")
			}
		case goPath.MatchString(name):
			if _, atPath := ix.goSources[name]; !atPath && (strings.Contains(name, "/") || !ix.files[name]) {
				report(span, "no such Go file")
			}
		case qualified.MatchString(name):
			qm := qualified.FindStringSubmatch(name)
			pkg, id, sel := qm[1], qm[2], qm[3]
			if ix.decls[pkg] == nil || pkg == "main" || ix.spelled(name) {
				continue // not a package of this module (stdlib, or a local such as sys.Run), or not a Go name
			}
			if !ix.decls[pkg][id] && !ix.anyMember(pkg, id) {
				report(span, "package "+pkg+" declares no "+id+", and no type of it has one")
			} else if sel != "" && !ix.hasMember(pkg, id, sel, 0) {
				report(span, pkg+"."+id+" has no field or method "+sel)
			}
		}
	}
	return found
}

// spelled reports whether the program spells name as a string, whole or
// from a prefix ending at a separator ("sim.switches_" + class, ring
// "rejoin.bulk" + ".g1"): a metric, ring or trace-scope name.
func (ix *docIndex) spelled(name string) bool {
	for _, s := range ix.strs {
		if name == s || strings.HasPrefix(name, s) && (strings.HasSuffix(s, "_") || strings.ContainsRune("._", rune(name[len(s)]))) {
			return true
		}
	}
	return false
}

func (ix *docIndex) anyTest(fn string) bool {
	for _, fns := range ix.tests {
		if fns[fn] {
			return true
		}
	}
	return false
}

func (ix *docIndex) anyMember(pkg, name string) bool {
	for typ := range ix.members[pkg] {
		if ix.members[pkg][typ][name] {
			return true
		}
	}
	return false
}

// citations checks every "DESIGN.md §N" (and a list that follows it,
// "§N, §M") against DESIGN.md's section headings.
func (ix *docIndex) citations(file, text string) []string {
	var found []string
	for _, c := range designCite.FindAllString(text, -1) {
		for _, n := range sectionNum.FindAllStringSubmatch(c, -1) {
			if !ix.sections[n[1]] {
				found = append(found, fmt.Sprintf("%s: %q cites §%s, which DESIGN.md has no \"## %s.\" heading for", file, c, n[1], n[1]))
			}
		}
	}
	return found
}

// runPatterns checks every `-run` pattern of a CI or Makefile command but
// '^$': each |-alternative must match a Test func of a package the command
// lists, or the step runs nothing and stays green.
func (ix *docIndex) runPatterns(file, text string) []string {
	var found []string
	for _, line := range strings.Split(text, "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := m[1] + m[2] + m[3]
		if pattern == "^$" || pattern == "^$$" {
			continue
		}
		var funcs, pkgs []string
		for _, arg := range strings.Fields(m[4]) {
			dir, ok := strings.CutPrefix(arg, "./")
			if !ok {
				continue
			}
			pkgs = append(pkgs, arg)
			dir = strings.TrimSuffix(dir, "/")
			if prefix, ok := strings.CutSuffix(dir, "/..."); ok {
				for d, fns := range ix.dirTests {
					if d == prefix || strings.HasPrefix(d, prefix+"/") {
						funcs = append(funcs, fns...)
					}
				}
				continue
			}
			funcs = append(funcs, ix.dirTests[dir]...)
		}
		if len(pkgs) == 0 {
			found = append(found, fmt.Sprintf("%s: -run '%s' lists no package", file, pattern))
			continue
		}
	alternatives:
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				found = append(found, fmt.Sprintf("%s: -run '%s': %v", file, pattern, err))
				continue
			}
			for _, fn := range funcs {
				if re.MatchString(fn) {
					continue alternatives
				}
			}
			found = append(found, fmt.Sprintf("%s: -run '%s': %q matches no Test func of %s", file, pattern, alt, strings.Join(pkgs, " ")))
		}
	}
	return found
}

// sectionShapes reports every "## N." section from §9 on that does not
// say the three things a DESIGN.md section says: its invariant, its
// mechanism and a Test that pins it.
func sectionShapes(doc, text string) []string {
	var found []string
	for _, sec := range strings.Split(text, "\n## ")[1:] {
		num, _, _ := strings.Cut(sec, ".")
		if n, err := strconv.Atoi(num); err != nil || n < 9 {
			continue
		}
		_, pinned, ok := strings.Cut(sec, "**Pinned by.**")
		if !strings.Contains(sec, "**Invariant") || !strings.Contains(sec, "**Mechanism.**") || !ok || !pinningTest.MatchString(pinned) {
			found = append(found, fmt.Sprintf("%s: §%s does not state its **Invariant**, its **Mechanism** and the `Test*` it is **Pinned by**", doc, num))
		}
	}
	return found
}

// historyTables reports every table whose header row names a parent,
// change, here, before or after column.
func historyTables(doc, text string) []string {
	var found []string
	lines := strings.Split(text, "\n")
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "|") || !tableRule.MatchString(lines[i+1]) {
			continue
		}
		for _, cell := range strings.Split(strings.Trim(lines[i], "| "), "|") {
			if historyCol.MatchString(strings.ToLower(cell)) {
				found = append(found, fmt.Sprintf("%s:%d: table %s compares a parent with a change: the record of that is CHANGES.md", doc, i+1, strings.TrimSpace(lines[i])))
				break
			}
		}
	}
	return found
}
