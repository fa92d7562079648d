package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicMix keeps mixed atomic and plain access to one variable out of the
// module by banning the API that permits it.
//
// A word accessed through sync/atomic's function API (atomic.LoadUint64(&x)
// and friends) is one plain `x` away from a torn read or a lost update, and
// nothing in the type system notices. The typed API (atomic.Uint64,
// atomic.Pointer[T], ...) makes that mistake impossible, and every atomic
// in this module uses it; the analyzer reports any call into the function
// API so it stays that way. `// parthtm:plain` suppresses a finding.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Tag:  "plain",
	Doc: "check that no code calls the sync/atomic function API, whose " +
		"operands can also be read or written plainly",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if funcPkgPath(fn) == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(),
					"call to atomic.%s: the sync/atomic function API lets the same word be accessed plainly elsewhere, which races — use the typed atomics (atomic.Uint64, atomic.Pointer[T], ...)", fn.Name())
			}
			return true
		})
	}
}
