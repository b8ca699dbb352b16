package dynamips

import (
	"strconv"
	"strings"
	"testing"

	"dynamips/internal/lint"
)

// The layering rule. The analysis plane infers assignment practice only
// from what an observer sees (echoed addresses, CDN associations), so its
// production code may not link the simulators that produce that ground
// truth. Test files are exempt: they build fleets to check the analyses
// against the truth.
var (
	analysisPlane = []string{"echo", "core", "cdn", "cdn/stream", "hitlist", "reputation", "anonymize"}
	simulators    = []string{"isp", "atlas", "radius", "dhcp4", "dhcp6", "addrpool", "evq", "faultnet", "bng", "bng/stripe"}
)

// TestLayers walks each analysis package's production import closure and
// fails on every simulator it reaches, naming the shortest import chain.
func TestLayers(t *testing.T) {
	mod, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	imports := make(map[string][]string, len(mod.Pkgs)) // package -> module-internal imports
	for _, pkg := range mod.Pkgs {
		deps := []string{}
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				if p, err := strconv.Unquote(spec.Path.Value); err == nil && strings.HasPrefix(p, mod.Path+"/") {
					deps = append(deps, p)
				}
			}
		}
		imports[pkg.ImportPath] = deps
	}
	internal := func(name string) string {
		p := mod.Path + "/internal/" + name
		if _, ok := imports[p]; !ok {
			t.Fatalf("layering rule names %s, which is not a package", p)
		}
		return p
	}
	simulator := make(map[string]bool, len(simulators))
	for _, name := range simulators {
		simulator[internal(name)] = true
	}
	for _, name := range analysisPlane {
		root := internal(name)
		via := map[string]string{root: ""} // package -> the importer that reached it
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			p := queue[0]
			if simulator[p] {
				chain := []string{p}
				for q := via[p]; q != ""; q = via[q] {
					chain = append([]string{q}, chain...)
				}
				t.Errorf("analysis package reaches a simulator: %s",
					strings.ReplaceAll(strings.Join(chain, " -> "), mod.Path+"/", ""))
				continue
			}
			for _, dep := range imports[p] {
				if _, seen := via[dep]; !seen {
					via[dep] = p
					queue = append(queue, dep)
				}
			}
		}
	}
}
