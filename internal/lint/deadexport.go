package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// DeadExport flags exported package-level funcs, types, vars, consts and
// methods declared under internal/ that no non-test file references: an
// export only its own package's tests (or nothing at all) reach is a
// mechanism with no production caller. References count from every
// non-test file of the module — cmd/, the package itself — and from the
// nested ReferenceModules (perfbench), so a benchmark's calls are
// production calls. examples/ is not a root: a demo shows how to call
// the production path, so an export only a demo reaches is dead too.
// Uses inside the declaration itself (recursion, and for a type its own
// methods) do not count.
//
// Objects are keyed by package path, receiver type and name, so
// references resolved in a separately loaded module match the
// declarations they name. A method may be reached through an interface
// without any selector naming it, so a method that implements some
// interface in the loaded program for a type of the reference universe
// (its own receiver type, or a type that embeds it) is never flagged.
// A method that shares only its name with an interface method is
// judged like any other. A missed finding is acceptable; a false one
// is not.
var DeadExport = &Analyzer{
	Name:      "deadexport",
	Doc:       "flag exported internal/ identifiers that no non-test, non-example file of the module (or of perfbench) references",
	RunModule: runDeadExport,
}

// ifaceMethodsAlways are method names that satisfy interfaces declared
// outside any package scope the loader can see: the universe's error,
// and the anonymous interfaces the errors and fmt packages assert.
var ifaceMethodsAlways = map[string]bool{
	"Error": true, "String": true, "ServeHTTP": true, "Unwrap": true,
	"Is": true, "As": true, "Format": true, "GoString": true,
}

// deadCandidate is one exported declaration under judgment.
type deadCandidate struct {
	key  string
	kind string
	name token.Pos // the declared identifier
	// decl spans the declaration; a use inside it is a self-reference.
	// A type's span list also holds its methods.
	decl []ast.Node
}

func runDeadExport(mp *ModulePass) error {
	root := ""
	for _, pkg := range mp.Pkgs {
		if _, ok := pkg.RelPath(); ok {
			root = pkg.ModuleRoot()
			break
		}
	}
	if root == "" {
		return nil
	}

	// The reference universe: the analyzed packages, every other package
	// of the module, and the nested reference modules, minus examples/.
	var universe []*Package
	for _, pkg := range mp.Pkgs {
		if !isExample(pkg.PkgPath) {
			universe = append(universe, pkg)
		}
	}
	missing, err := missingModulePkgs(root, mp.Pkgs)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		more, err := Load(root, missing...)
		if err != nil {
			return err
		}
		universe = append(universe, more...)
	}
	for _, dir := range ReferenceModules {
		dir = filepath.Join(root, filepath.FromSlash(dir))
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		more, err := Load(dir)
		if err != nil {
			return err
		}
		universe = append(universe, more...)
	}

	viaIface := interfaceReached(universe)
	cands := make(map[string]*deadCandidate)
	var order []*deadCandidate
	for _, pkg := range mp.Pkgs {
		rel, ok := pkg.RelPath()
		if !ok || !(rel == "internal" || strings.HasPrefix(rel, "internal/")) {
			continue
		}
		for _, c := range exportedDecls(pkg, viaIface) {
			cands[c.key] = c
			order = append(order, c)
		}
	}
	// Fold each method's span into its receiver type's, so a type used
	// only by its own methods stays a candidate.
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				if c := cands[pkg.PkgPath+"."+recvTypeName(fd)]; c != nil {
					c.decl = append(c.decl, fd)
				}
			}
		}
	}

	live := make(map[string]bool)
	for _, pkg := range universe {
		for id, obj := range pkg.Info.Uses {
			key := objectKey(obj)
			if key == "" || live[key] {
				continue
			}
			if c := cands[key]; c != nil && pkg.Fset == mp.fset && within(c.decl, id.Pos()) {
				continue
			}
			live[key] = true
		}
	}
	for _, c := range order {
		if !live[c.key] {
			mp.Reportf(c.name, "exported %s %s has no non-test reference: delete it, or keep it with //simlint:allow deadexport <reason>",
				c.kind, strings.TrimPrefix(c.key, ModulePath+"/"))
		}
	}
	return nil
}

// isExample reports whether the import path is under the module's
// examples/ tree.
func isExample(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, ModulePath+"/examples/")
}

// missingModulePkgs lists the module's packages under root, outside
// examples/, that pkgs does not already hold.
func missingModulePkgs(root string, pkgs []*Package) ([]string, error) {
	cmd := exec.Command("go", "list", "-f", "{{.ImportPath}}", "./...")
	cmd.Dir = root
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	have := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		have[p.PkgPath] = true
	}
	var missing []string
	for _, path := range strings.Fields(out.String()) {
		if !have[path] && !isExample(path) {
			missing = append(missing, path)
		}
	}
	return missing, nil
}

// exportedDecls returns the package's exported package-level
// declarations, minus the methods viaIface says an interface reaches.
func exportedDecls(pkg *Package, viaIface map[string]bool) []*deadCandidate {
	var out []*deadCandidate
	add := func(id *ast.Ident, kind string, decl ast.Node) {
		if !id.IsExported() {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			return
		}
		if key := objectKey(obj); key != "" && !viaIface[key] {
			out = append(out, &deadCandidate{key: key, kind: kind, name: id.Pos(), decl: []ast.Node{decl}})
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "func", d)
				} else if !ifaceMethodsAlways[d.Name.Name] {
					add(d.Name, "method", d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "type", spec)
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, id := range spec.Names {
							add(id, kind, spec)
						}
					}
				}
			}
		}
	}
	return out
}

// objectKey names a package-level object or method by package path,
// receiver type and name ("spp1000/internal/sim.Kernel.Run"), the same
// way in every load. Other objects (fields, locals, universe and
// standard-library names) key to "".
func objectKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil || !strings.HasPrefix(pkg.Path(), ModulePath+"/") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin() // an instantiation names its generic declaration
		obj = fn
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return ""
			}
			return pkg.Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if pkg.Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return pkg.Path() + "." + obj.Name()
}

// recvTypeName is the base type name of a method's receiver.
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// within reports whether pos falls inside any of the nodes.
func within(nodes []ast.Node, pos token.Pos) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// interfaceReached returns the keys of the methods an interface call
// may reach: for each type T of the program, for T and *T, the methods
// (declared or promoted through embedded fields) that implement an
// interface T or *T implements. The interfaces are the package-scope
// interfaces of every package the sources import, transitively, and
// the interface types written in the sources (anonymous ones
// included). The types are the ones the sources declare (local ones
// included) and those of the imported module packages, which may be
// embedded.
//
// The loader type-checks each package from source while its importers
// see it through export data, and each Load has its own importer, so
// one named type has several identities. Every identity of every type
// is tested against every identity of every interface; some pair then
// shares identities wherever an implementation exists, and
// types.Implements finds it.
func interfaceReached(pkgs []*Package) map[string]bool {
	var ifaces []*types.Interface
	var named []*types.TypeName
	addIface := func(it *types.Interface) {
		if it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				addIface(it)
			} else if strings.HasPrefix(p.Path(), ModulePath+"/") {
				named = append(named, tn)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			visit(imp)
		}
		for expr, tv := range pkg.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				addIface(tv.Type.(*types.Interface))
			}
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
				named = append(named, tn)
			}
		}
	}

	reached := make(map[string]bool)
	for _, tn := range named {
		for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			ms := types.NewMethodSet(t)
			if ms.Len() == 0 {
				continue
			}
			for _, it := range ifaces {
				// Most pairs fail on the first method's name; test it
				// before the full check.
				m := it.Method(0)
				if ms.Lookup(m.Pkg(), m.Name()) == nil || !types.Implements(t, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if key := objectKey(ms.Lookup(m.Pkg(), m.Name()).Obj()); key != "" {
						reached[key] = true
					}
				}
			}
		}
	}
	return reached
}
