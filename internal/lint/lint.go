// Package lint is dynalint's analyzer engine: a stdlib-only static-analysis
// suite (go/ast + go/types) enforcing the repo's determinism, netip-hygiene,
// error-wrapping, and lock-discipline invariants. See README.md "Static
// analysis & determinism conventions" for the rule catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Config selects which packages each repo-specific rule applies to.
type Config struct {
	// SimPackages lists import-path suffixes of the simulation/analysis
	// packages where determinism rules (no wall clock, no global RNG), the
	// goroutine-discipline rules, and the exported-API netip rules are
	// enforced. An entry matches a package whose import path equals it or
	// ends with "/"+entry.
	SimPackages []string
	// SpawnPackages lists the packages allowed to contain `go` statements
	// when they are simulation packages: the shared worker-pool layer.
	SpawnPackages []string
	// HotPackages lists packages whose every function is held to the
	// hotalloc zero-allocation rules; individual functions elsewhere opt
	// in with a //lint:hotpath doc-comment marker.
	HotPackages []string
	// Rules restricts which analyzers run; empty means all.
	Rules []string
}

// DefaultConfig is the repository configuration: the packages that form the
// deterministic simulation and analysis core, including every package whose
// output feeds canonical snapshots (stats, obs, checkpoint, and the keying/
// classification helpers).
func DefaultConfig() Config {
	return Config{
		SimPackages: []string{
			"internal/addrpool",
			"internal/evq",
			"internal/isp",
			"internal/atlas",
			"internal/cdn",
			"internal/cdn/stream",
			"internal/core",
			"internal/dhcp4",
			"internal/dhcp6",
			"internal/faultnet",
			"internal/radius",
			"internal/cgnat",
			"internal/checkpoint",
			"internal/experiments",
			"internal/obs",
			"internal/parallel",
			"internal/stats",
			"internal/anonymize",
			"internal/bgp",
			"internal/slaac",
			"internal/hitlist",
			"internal/reputation",
			"internal/rir",
			"internal/netutil",
			"internal/rtrie",
			"internal/bng",
			"internal/bng/stripe",
			"internal/sketch",
		},
		SpawnPackages: []string{
			"internal/parallel",
		},
		HotPackages: []string{
			"internal/evq",
			"internal/rtrie",
			"internal/cdn/stream",
			"internal/bng/stripe",
			"internal/sketch",
		},
	}
}

// IsSimPackage reports whether the import path is one of the configured
// simulation/analysis packages.
func (c Config) IsSimPackage(importPath string) bool {
	return matchPackage(c.SimPackages, importPath)
}

func (c Config) isSpawnPackage(importPath string) bool {
	return matchPackage(c.SpawnPackages, importPath)
}

func (c Config) isHotPackage(importPath string) bool {
	return matchPackage(c.HotPackages, importPath)
}

func matchPackage(suffixes []string, importPath string) bool {
	for _, s := range suffixes {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, addressable as file:line.
type Diagnostic struct {
	Path    string `json:"path"` // relative to the module root
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the diagnostic in the canonical "file:line: [rule] message"
// form consumed by editors and CI.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Path, d.Line, d.Rule, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Cfg  Config

	diags *[]Diagnostic
	root  string
}

// Reportf records a diagnostic at pos under the given rule.
func (p *Pass) Reportf(rule string, pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	path := position.Filename
	if rel, ok := relPath(p.root, path); ok {
		path = rel
	}
	*p.diags = append(*p.diags, Diagnostic{
		Path:    path,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

func relPath(root, path string) (string, bool) {
	if root == "" {
		return path, false
	}
	prefix := root
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	if rest, ok := strings.CutPrefix(path, prefix); ok {
		return rest, true
	}
	return path, false
}

// Analyzer is one named rule set.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full dynalint suite in stable order: the four
// syntactic v1 rules followed by the dataflow-aware v2 rules.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		NetipAnalyzer,
		ErrwrapAnalyzer,
		LockcopyAnalyzer,
		MaporderAnalyzer,
		GoroutinesAnalyzer,
		HotallocAnalyzer,
		LockscopeAnalyzer,
	}
}

// AnalyzerNames returns the names of all analyzers in the suite.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run executes the selected analyzers over every package of the module and
// returns the surviving (non-suppressed) diagnostics sorted by position.
func Run(mod *Module, cfg Config, analyzers []*Analyzer) []Diagnostic {
	selected := analyzers
	if len(cfg.Rules) > 0 {
		keep := make(map[string]bool, len(cfg.Rules))
		for _, r := range cfg.Rules {
			keep[r] = true
		}
		selected = nil
		for _, a := range analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
			}
		}
	}
	var diags []Diagnostic
	sup := newSuppressions(mod)
	// Malformed directives are findings themselves: a typo'd suppression
	// silently un-suppresses, so surface it.
	diags = append(diags, sup.malformed...)
	for _, pkg := range mod.Pkgs {
		pass := &Pass{Fset: mod.Fset, Pkg: pkg, Cfg: cfg, diags: &diags, root: mod.Root}
		for _, a := range selected {
			a.Run(pass)
		}
	}
	diags = sup.filter(diags)
	// A suppression that suppresses nothing is itself a finding: stale
	// directives are how an allowlist rots as rules tighten. Only judged
	// when the directive's rule actually ran this invocation.
	selectedNames := make(map[string]bool, len(selected))
	for _, a := range selected {
		selectedNames[a.Name] = true
	}
	knownNames := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		knownNames[a.Name] = true
	}
	diags = append(diags, sup.unused(selectedNames, knownNames, len(selected) == len(analyzers))...)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Path != diags[j].Path {
			return diags[i].Path < diags[j].Path
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags
}

// suppressions indexes //lint:ignore directives. A directive written as
//
//	//lint:ignore <rule> <reason>
//
// suppresses diagnostics of <rule> on the directive's own line and on the
// line directly below it (so it works both as a trailing comment and as a
// standalone comment above the offending statement). Each directive tracks
// whether it suppressed anything: an unused directive is reported.
type directive struct {
	path string
	line int
	col  int
	rule string
	used bool
}

type suppressions struct {
	byFile    map[string]map[int][]*directive // path -> covered line -> directives
	list      []*directive                    // in file/position order
	malformed []Diagnostic
}

func newSuppressions(mod *Module) *suppressions {
	s := &suppressions{byFile: make(map[string]map[int][]*directive)}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					s.add(mod, c)
				}
			}
		}
	}
	return s
}

func (s *suppressions) add(mod *Module, c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
	if !ok {
		return
	}
	pos := mod.Fset.Position(c.Pos())
	path := pos.Filename
	if rel, ok := relPath(mod.Root, path); ok {
		path = rel
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		s.malformed = append(s.malformed, Diagnostic{
			Path: path, Line: pos.Line, Col: pos.Column, Rule: "directive",
			Message: "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"",
		})
		return
	}
	d := &directive{path: path, line: pos.Line, col: pos.Column, rule: fields[0]}
	s.list = append(s.list, d)
	lines := s.byFile[path]
	if lines == nil {
		lines = make(map[int][]*directive)
		s.byFile[path] = lines
	}
	for _, ln := range []int{pos.Line, pos.Line + 1} {
		lines[ln] = append(lines[ln], d)
	}
}

func (s *suppressions) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		if d.Rule != "directive" {
			for _, dir := range s.byFile[d.Path][d.Line] {
				if dir.rule == d.Rule || dir.rule == "all" {
					dir.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// unused reports every directive that suppressed nothing. selected names
// the analyzers that ran: a directive for a rule that did not run is not
// judged (it may be live under the full suite), blanket "all" directives
// are judged only on full-suite runs, and a rule name outside the known
// suite is always a finding — a typo'd directive silently un-suppresses.
func (s *suppressions) unused(selected, known map[string]bool, fullSuite bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.list {
		if d.used {
			continue
		}
		switch {
		case d.rule == "all":
			if !fullSuite {
				continue
			}
		case !known[d.rule]:
			out = append(out, Diagnostic{
				Path: d.path, Line: d.line, Col: d.col, Rule: "directive",
				Message: fmt.Sprintf("//lint:ignore %s names no analyzer; fix the rule name (have all, %s)", d.rule, strings.Join(AnalyzerNames(), ", ")),
			})
			continue
		case !selected[d.rule]:
			continue
		}
		out = append(out, Diagnostic{
			Path: d.path, Line: d.line, Col: d.col, Rule: "directive",
			Message: fmt.Sprintf("//lint:ignore %s suppresses nothing; remove the stale directive or fix the rule name", d.rule),
		})
	}
	return out
}
