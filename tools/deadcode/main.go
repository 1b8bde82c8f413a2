// Command deadcode fails when a function declared under internal/ is
// linked into no product binary and is not on the checked-in allowlist.
//
// It builds every main package of the module outside tools/ with
// inlining off for the module's own packages (-gcflags=<module>/...=-l),
// so a function called only from inlined sites still shows as a symbol,
// and collects the module's text symbols with `go tool nm`. It then
// walks every default-build, non-test file under internal/ with
// go/parser. A declaration counts as linked when a symbol names it, one
// of its closures or wrappers (name.func1, name.deferwrap1, …), or a
// generic instantiation of it (brackets are ignored, and a method on *T
// matches one declared on T).
//
// The allowlist (tools/deadcode/allow.txt) names the functions only
// tests may reach, one per line as the report prints them, each with a
// reason after '#'. The gate fails on an unlinked function the list
// lacks, and on a listed function that is now linked or no longer
// declared, so the list can only shrink to what it must hold.
//
// Run it from the module root:
//
//	go run ./tools/deadcode            # the gate, as `make deadcode` runs it
//	go run ./tools/deadcode -allow ''  # list every unlinked function
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	allowPath := flag.String("allow", "tools/deadcode/allow.txt", "allowlist file; empty lists every unlinked function")
	flag.Parse()
	if err := run(*allowPath); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

// decl is one function declared in a non-test file.
type decl struct {
	name  string // display and allowlist name: internal/pkg.Func or internal/pkg.Recv.Method
	key   string // the same with the module path, as symbols are normalised
	pos   string // file:line
	lines int    // lines from the func keyword to the closing brace
}

func run(allowPath string) error {
	mod, err := modulePath()
	if err != nil {
		return err
	}
	syms, nbin, err := linkedSymbols(mod)
	if err != nil {
		return err
	}
	decls, err := declarations(mod)
	if err != nil {
		return err
	}
	var unlinked []decl
	declared := make(map[string]bool, len(decls))
	isUnlinked := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if !linked(syms, d.key) {
			unlinked = append(unlinked, d)
			isUnlinked[d.name] = true
		}
	}
	sort.Slice(unlinked, func(i, j int) bool { return unlinked[i].name < unlinked[j].name })

	allow := map[string]bool{}
	if allowPath != "" {
		if allow, err = readAllow(allowPath); err != nil {
			return err
		}
	}
	var bad []string
	total := 0
	for _, d := range unlinked {
		total += d.lines
		if !allow[d.name] {
			bad = append(bad, fmt.Sprintf("unlinked: %s (%s, %d lines)", d.name, d.pos, d.lines))
		}
	}
	var stale []string
	for name := range allow {
		switch {
		case !declared[name]:
			stale = append(stale, "allowlisted but not declared: "+name)
		case !isUnlinked[name]:
			stale = append(stale, "allowlisted but linked: "+name)
		}
	}
	sort.Strings(stale)
	bad = append(bad, stale...)
	fmt.Printf("deadcode: %d mains, %d functions declared, %d unlinked (%d lines), %d allowlisted\n",
		nbin, len(decls), len(unlinked), total, len(allow))
	if len(bad) == 0 {
		return nil
	}
	for _, b := range bad {
		fmt.Println(b)
	}
	return fmt.Errorf("%d problems; delete the function, or allowlist it with the test that needs it", len(bad))
}

func modulePath() (string, error) {
	out, err := goCmd("list", "-m")
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(out)), nil
}

// linkedSymbols builds every main package outside tools/ and returns the
// module's text symbols, normalised by normalize.
func linkedSymbols(mod string) (map[string]bool, int, error) {
	out, err := goCmd("list", "-f", "{{if eq .Name \"main\"}}{{.ImportPath}}{{end}}", "./...")
	if err != nil {
		return nil, 0, err
	}
	var mains []string
	for _, p := range strings.Fields(string(out)) {
		if !strings.HasPrefix(p, mod+"/tools/") {
			mains = append(mains, p)
		}
	}
	if len(mains) == 0 {
		return nil, 0, fmt.Errorf("no main packages")
	}
	dir, err := os.MkdirTemp("", "deadcode-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"build", "-gcflags=" + mod + "/...=-l", "-o", dir + string(filepath.Separator)}, mains...)
	if _, err := goCmd(args...); err != nil {
		return nil, 0, err
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	if len(bins) != len(mains) {
		return nil, 0, fmt.Errorf("built %d binaries for %d mains (two share a name?)", len(bins), len(mains))
	}
	syms := map[string]bool{}
	for _, b := range bins {
		out, err := goCmd("tool", "nm", filepath.Join(dir, b.Name()))
		if err != nil {
			return nil, 0, err
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 {
				continue
			}
			typ, name := f[len(f)-2], f[len(f)-1]
			if (typ == "T" || typ == "t") && strings.HasPrefix(name, mod+"/") {
				syms[normalize(name)] = true
			}
		}
	}
	return syms, len(bins), nil
}

// normalize drops type arguments and pointer receivers from a symbol:
// "m/p.(*T[go.shape.int]).M" becomes "m/p.T.M".
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0:
		default:
			b.WriteRune(r)
		}
	}
	s := strings.ReplaceAll(b.String(), "(*", "")
	return strings.ReplaceAll(s, ").", ".")
}

func linked(syms map[string]bool, key string) bool {
	if syms[key] {
		return true
	}
	for s := range syms {
		if strings.HasPrefix(s, key+".") {
			return true
		}
	}
	return false
}

// declarations parses the default-build, non-test files of every package
// under internal/ and returns their function declarations.
func declarations(mod string) ([]decl, error) {
	out, err := goCmd("list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./internal/...")
	if err != nil {
		return nil, err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			return nil, fmt.Errorf("unexpected go list line %q", line)
		}
		path, dir := f[0], f[1]
		for _, name := range strings.Fields(f[2]) {
			file := filepath.Join(dir, name)
			af, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(cwd, file)
			if err != nil {
				rel = file
			}
			for _, d := range af.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				local := fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					local = recvName(fn.Recv.List[0].Type) + "." + local
				}
				start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
				decls = append(decls, decl{
					name:  strings.TrimPrefix(path, mod+"/") + "." + local,
					key:   path + "." + local,
					pos:   fmt.Sprintf("%s:%d", rel, start.Line),
					lines: end.Line - start.Line + 1,
				})
			}
		}
	}
	return decls, nil
}

// recvName is the base type name of a receiver: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// readAllow reads one function name per line; '#' starts a comment.
// Every entry must carry a reason.
func readAllow(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		name, reason, _ := strings.Cut(line, "#")
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		if allow[name] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, name)
		}
		allow[name] = true
	}
	return allow, nil
}

func goCmd(args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
