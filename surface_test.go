package kamsta

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestPublicSurface pins the package's exported identifiers — top-level
// names and the methods of exported types — so the surface cannot regrow
// silently and README's list stays checkable. Adding or removing an
// exported name means editing the list below on purpose.
func TestPublicSurface(t *testing.T) {
	want := []string{
		"AlgBoruvka", "AlgFilterBoruvka", "AlgKruskal", "AlgMNDMST", "AlgSparseMatrix",
		"Algorithm", "AlgorithmNames", "Algorithms", "DistributedAlgorithms",
		"ErrMachineClosed", "ErrWorldFailed",
		"Event", "EventKind", "EventPhaseBegin", "EventPhaseEnd", "EventRound",
		"FaultKind", "FaultLostPE", "FaultPanic", "FaultStall", "FaultTransport",
		"FromEdges", "FromFile", "FromFileFormat", "FromSpec",
		"GNM", "GraphSpec", "Grid2D", "InputEdge",
		"JobError", "JobError.Error", "JobError.Unwrap",
		"Machine", "Machine.Close", "Machine.Compute", "Machine.Healthy",
		"Machine.PEs", "Machine.Rebuilds", "Machine.Threads",
		"MachineConfig", "MachineConfig.Validate",
		"Metrics", "NewMachine", "NewMetrics", "NewTrace", "Observer",
		"ParseAlgorithm", "ParseAlgorithmList",
		"RGG2D", "RGG3D", "RHG", "RMAT", "Report", "RoadLike", "RunOption",
		"ServeWorker", "Source", "Trace", "TransportSHM", "TransportTCP",
		"WithAlgorithm", "WithCoreOptions", "WithFaultInjection", "WithObserver",
		"WithSeed", "WithStallTimeout", "WithTrace", "WorkerOptions",
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["kamsta"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if !ast.IsExported(recv.(*ast.Ident).Name) {
						continue
					}
					name = recv.(*ast.Ident).Name + "." + name
				}
				if d.Name.IsExported() {
					got = append(got, name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							got = append(got, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("public surface changed.\n got: %v\nwant: %v", got, want)
	}
}
