package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer enforces the repo's replayability contract inside the
// simulation/analysis packages: time must flow from an injected Clock (the
// servers' virtual epoch), never from the wall clock, and randomness must be
// drawn from a seeded *rand.Rand (or rand/v2 equivalent), never from the
// globally-seeded package-level functions. Every call is flagged; a
// justified exception carries a //lint:ignore determinism directive.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now() and global math/rand in simulation packages; " +
		"inject a Clock and a seeded *rand.Rand instead",
	Run: runDeterminism,
}

// randConstructors are the package-level math/rand functions that build
// seeded generators rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDeterminism(p *Pass) {
	if !p.Cfg.IsSimPackage(p.Pkg.ImportPath) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Pkg.Info, call)
			if fn == nil {
				return true
			}
			if isPkgFunc(fn, "time", "Now") {
				p.Reportf("determinism", call.Pos(),
					"time.Now() in simulation package %s: thread the injected Clock instead",
					p.Pkg.Types.Name())
			}
			if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
				sig, ok := fn.Type().(*types.Signature)
				if ok && sig.Recv() == nil && !randConstructors[fn.Name()] {
					p.Reportf("determinism", call.Pos(),
						"global %s.%s() in simulation package %s: draw from a seeded *rand.Rand",
						pkg.Name(), fn.Name(), p.Pkg.Types.Name())
				}
			}
			return true
		})
	}
}
