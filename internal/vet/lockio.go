package vet

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/vet/cfg"
)

// LockOverIO flags mutexes held across blocking transport I/O. Holding
// a lock over a network round trip serializes every other caller
// behind a remote peer — or deadlocks outright when the peer's
// response needs the same lock. Blocking calls are net.Conn / tls.Conn
// reads and writes, the record-marking helpers (writeRecord,
// readRecord, writeFrame, readFrame), io.ReadFull/io.Copy, and RPC
// Call/CallCred on the oncrpc client.
//
// Intentional holds (e.g. a channel that must serialize frames to
// keep its cipher stream ordered) are recorded in .sgfsvet-ignore.
type LockOverIO struct{}

// Name implements Analyzer.
func (LockOverIO) Name() string { return "lock-over-io" }

// blockingFuncs are package-level functions that block on the network.
var blockingFuncs = map[string]bool{
	"writeRecord": true,
	"readRecord":  true,
	"writeFrame":  true,
	"readFrame":   true,
}

// blockingMethods are method names that block when invoked on a
// network-ish receiver (see blockingReceiver).
var blockingMethods = map[string]bool{
	"Read":     true,
	"Write":    true,
	"Call":     true,
	"CallCred": true,
	"Accept":   true,
}

// Run implements Analyzer on the lock engine (locks.go): a blocking
// call is reported when some mutex is held on every path into it, so a
// branch that conditionally unlocks before the I/O does not report.
// Findings in function literals are reported under the enclosing
// declaration's name.
func (LockOverIO) Run(m *Module) []Diagnostic {
	var lf lockFlow
	var diags []Diagnostic
	for _, b := range m.bodies {
		pkg := b.pkg
		lf.replay(m.cfgOf(b.body), pkg, func(eff *lockEffect, n ast.Node) {
			if len(eff.acq) == 0 {
				return
			}
			cfg.Inspect(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok || !isBlockingCall(pkg, call) {
					return true
				}
				diags = append(diags, Diagnostic{
					Analyzer: "lock-over-io",
					Pos:      pkg.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("%s held across blocking call %s in %s",
						eff.heldNames()[0], exprString(call.Fun), b.decl.Name.Name),
				})
				return true
			})
		})
	}
	return diags
}

// isBlockingCall reports whether call can block on the network.
func isBlockingCall(pkg *Package, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return blockingFuncs[fun.Name]
	case *ast.SelectorExpr:
		// Package-qualified stdlib helpers.
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				p := pn.Imported().Path()
				if p == "io" {
					switch fun.Sel.Name {
					case "ReadFull", "ReadAtLeast", "Copy":
						return true
					}
				}
				return false
			}
		}
		if !blockingMethods[fun.Sel.Name] {
			return false
		}
		return blockingReceiver(pkg.Info.Types[fun.X].Type)
	}
	return false
}

// blockingReceiver reports whether a Read/Write/Call on this type goes
// to the network: net/tls connections and listeners, and this module's
// RPC client and secure-channel connection types.
func blockingReceiver(t types.Type) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	pkgPath, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch pkgPath {
	case "net", "crypto/tls":
		return true
	}
	switch name {
	case "Client", "Conn":
		return true
	}
	return false
}
