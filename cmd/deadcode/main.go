// Command deadcode fails when a declaration in the repository is reached
// by no program and is not listed, with a reason, in cmd/deadcode/allow.txt
// (its header gives the format). Run it from the repository root: make
// deadcode.
//
// It type-checks every package under the root, the second module under
// bench/ included, and walks what the roots use: main and init of every
// main package, every package-level variable initializer, and the exported
// names of the root package. A use is what go/types records for an
// identifier, a selector included. A method also counts as reached when
// its receiver type is reached and some interface, in the tree or in a
// standard package it imports, declares a method of that name: a call
// through an interface names no concrete method.
//
// The check also fails on an allowlist line with no reason and on a stale
// line, whose name is reached or declared nowhere, so the list only
// shrinks.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	allow, err := os.ReadFile("cmd/deadcode/allow.txt")
	var dead []decl
	var all map[string]bool
	if err == nil {
		dead, all, err = unreached(".")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if problems := checkAllow(dead, all, allow); len(problems) > 0 {
		fmt.Println(strings.Join(problems, "\n"))
		os.Exit(1)
	}
}

// decl is one package-level declaration that no root reaches.
type decl struct {
	pkg, name string // import path, and Name or Type.Method
	pos       token.Position
}

// pkg is one package of the tree, parsed and then type-checked.
type pkg struct {
	name  string
	files []*ast.File
	types *types.Package
}

type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg
	info *types.Info
	root string // the root package's import path
}

// unreached type-checks the tree under root and returns the declarations no
// root reaches, and the name of every declaration and package in it.
func unreached(root string) ([]decl, map[string]bool, error) {
	// A standard package with cgo files is read through its non-cgo twin,
	// so no C toolchain is needed.
	build.Default.CgoEnabled = false
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkg{}, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.walk(root); err != nil {
		return nil, nil, err
	}
	var paths []string
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, nil, err
		}
	}

	// The graph: each declaration and the objects of the tree its syntax
	// uses, a generic's instances counted as the generic.
	uses := map[types.Object][]types.Object{}
	methods := map[types.Object][]*types.Func{} // receiver type -> its methods
	var roots, declared []types.Object
	refs := func(n ast.Node) (out []types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				o := l.info.Uses[id]
				if f, ok := o.(*types.Func); ok {
					o = f.Origin()
				} else if v, ok := o.(*types.Var); ok {
					o = v.Origin()
				}
				if o != nil && o.Pkg() != nil && l.pkgs[o.Pkg().Path()] != nil {
					out = append(out, o)
				}
			}
			return true
		})
		return out
	}
	declare := func(o types.Object, refs []types.Object) {
		declared = append(declared, o)
		uses[o] = refs
		if recv := recvType(o); recv != nil {
			methods[recv] = append(methods[recv], o.(*types.Func))
		}
	}
	for _, p := range paths {
		pk := l.pkgs[p]
		for _, n := range pk.types.Scope().Names() {
			if p == l.root && token.IsExported(n) {
				roots = append(roots, pk.types.Scope().Lookup(n))
			}
		}
		for _, f := range pk.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pk.name == "main") {
						roots = append(roots, refs(d)...)
					} else {
						declare(l.info.Defs[d.Name], refs(d))
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(l.info.Defs[s.Name], refs(s))
						case *ast.ValueSpec:
							init := refs(s)
							if d.Tok == token.VAR {
								roots = append(roots, init...)
							}
							for _, id := range s.Names {
								if id.Name != "_" {
									declare(l.info.Defs[id], init)
								}
							}
						}
					}
				}
			}
		}
	}

	// The method names some interface declares, in the tree or in a
	// standard package it imports.
	iface := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				iface[it.Method(i).Name()] = true
			}
		}
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			addIface(tv.Type)
		}
	}
	for _, p := range paths {
		for _, q := range l.pkgs[p].types.Imports() {
			for _, n := range q.Scope().Names() {
				if tn, ok := q.Scope().Lookup(n).(*types.TypeName); ok && l.pkgs[q.Path()] == nil {
					addIface(tn.Type())
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		o := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[o] {
			continue
		}
		reached[o] = true
		roots = append(roots, uses[o]...)
		for _, m := range methods[o] {
			if iface[m.Name()] {
				roots = append(roots, m)
			}
		}
	}

	var dead []decl
	all := map[string]bool{}
	for _, p := range paths {
		all[p] = true
	}
	for _, o := range declared {
		name := o.Name()
		recv := recvType(o)
		if recv != nil {
			name = recv.Name() + "." + name
		}
		all[o.Pkg().Path()+"."+name] = true
		if !reached[o] && (recv == nil || reached[recv]) { // a method of an unreached type goes with its type
			dead = append(dead, decl{pkg: o.Pkg().Path(), name: name, pos: l.fset.Position(o.Pos())})
		}
	}
	return dead, all, nil
}

// recvType is the named type a method is declared on, or nil for anything
// but a method.
func recvType(o types.Object) *types.TypeName {
	if fn, ok := o.(*types.Func); ok && fn.Signature().Recv() != nil {
		t := fn.Signature().Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Origin().Obj()
		}
	}
	return nil
}

// walk finds every package under root, skipping testdata and
// dot-directories. A directory holding a go.mod starts a module, and a
// package's import path is its module's path joined with its directory.
func (l *loader) walk(root string) error {
	mods := map[string]string{} // directory -> module path
	return filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					mods[dir] = f[1]
				}
			}
		}
		modDir := dir
		for mods[modDir] == "" && modDir != root {
			modDir = filepath.Dir(modDir)
		}
		rel, _ := filepath.Rel(modDir, dir)
		ipath := path.Join(mods[modDir], filepath.ToSlash(rel))
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		p := &pkg{name: bp.Name}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(l.fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
		}
		l.pkgs[ipath] = p
		if dir == root {
			l.root = ipath
		}
		return nil
	})
}

// Import type-checks a package of the tree, once, and hands any other
// import path to the standard library's source importer.
func (l *loader) Import(ipath string) (*types.Package, error) {
	p := l.pkgs[ipath]
	if p == nil {
		return l.std.Import(ipath)
	}
	if p.types == nil {
		conf := types.Config{Importer: l}
		t, err := conf.Check(ipath, l.fset, p.files, l.info)
		if err != nil {
			return nil, err
		}
		p.types = t
	}
	return p.types, nil
}

// checkAllow matches the unreached declarations against the allowlist and
// returns what fails: an unreached declaration no line covers, a line with
// no reason, and a stale line.
func checkAllow(dead []decl, all map[string]bool, allow []byte) []string {
	var problems, stale []string
	listed, covered := map[string]bool{}, map[string]bool{}
	for i, line := range strings.Split(string(allow), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) < 3 || f[1] != "hook" && f[1] != "reference" && f[1] != "roadmap" {
			problems = append(problems, fmt.Sprintf("allow.txt:%d: %s: no reason (want hook, reference or roadmap, then why)", i+1, f[0]))
		}
		listed[f[0]] = true
	}
	for _, d := range dead {
		switch full := d.pkg + "." + d.name; {
		case listed[full]:
			covered[full] = true
		case listed[d.pkg]:
			covered[d.pkg] = true
		default:
			problems = append(problems, fmt.Sprintf("%s: %s is reached by no program", d.pos, full))
		}
	}
	for name := range listed {
		if covered[name] {
			continue
		} else if all[name] {
			stale = append(stale, fmt.Sprintf("allow.txt: %s is stale: it is reached, delete its line", name))
		} else {
			stale = append(stale, fmt.Sprintf("allow.txt: %s names no declaration or package", name))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}
