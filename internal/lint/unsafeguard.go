package lint

import "strconv"

// UnsafeGuard pins the aliasing safelist: the `unsafe` package may be
// imported only from the files whose aliasing/lifetime invariants are
// documented in place — internal/gateway/conn.go (wire payloads alias
// the connection's scanner buffer). Any new unsafe import
// lands here first: either the file joins the safelist in the same
// change that documents its invariants, or the import goes.
var UnsafeGuard = &Analyzer{
	Name: "unsafeguard",
	Doc:  "unsafe imports are allowed only in the documented aliasing safelist files",
	Run:  runUnsafeGuard,
}

// unsafeSafelist holds the module-relative files with documented
// aliasing invariants (satellite of the zero-copy ingest and streaming
// kernels). Keep this list in lockstep with the invariant comments in
// the files themselves.
var unsafeSafelist = map[string]bool{
	"internal/gateway/conn.go": true,
}

func runUnsafeGuard(pass *Pass) {
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != "unsafe" {
				continue
			}
			fname := relPath(pass.Fset.Position(imp.Pos()).Filename, pass.ModRoot)
			if unsafeSafelist[fname] {
				continue
			}
			pass.Reportf(imp.Pos(),
				"import \"unsafe\" outside the aliasing safelist (%s): document the aliasing invariant in place and add the file to unsafeSafelist in internal/lint/unsafeguard.go, or drop the import",
				fname)
		}
	}
}
