// Command reach fails when a function of the module is linked by none of
// its programs and allowlist.txt does not name its caller. Run it from
// the root of the checkout:
//
//	go run ./tools/reach
//
// It builds the nine programs (cmd/*, examples/* and the bench module)
// with inlining off and the linker's dependency dump on, so that every
// call leaves an edge, and lists each non-test function outside package
// main whose symbol no link reached. A listed function missing from the
// allowlist fails, and so does an allowlist line that names no listed
// function, so the list cannot outlive what it excuses.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const module, allowlist = "repro/", "tools/reach/allowlist.txt"

// An allowlist line: a symbol, then a reason naming its kind of caller.
var lineRE = regexp.MustCompile(`^(\S+)\s+(harness|seam|hardware|fixture): \S`)

// typeArgs matches an innermost bracketed list of type arguments.
var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// Symbols the compiler derives from a function. The linker merges them
// by content, so one can be reached under the name of a function that
// never is.
var auxRE = regexp.MustCompile(`\.(arginfo\d|argliveinfo|stkobj|opendefer|wrapinfo|args_stackmap)$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reach: ")
	unreached := declared(linked())
	data, err := os.ReadFile(allowlist)
	check(err)
	bad, allowed := 0, map[string]int{}
	for n, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		m := lineRE.FindStringSubmatch(line)
		switch {
		case m == nil:
			fmt.Printf("%s:%d: want a symbol and a harness:, seam:, hardware: or fixture: reason\n", allowlist, n+1)
		case allowed[m[1]] != 0:
			fmt.Printf("%s:%d: %s is listed twice\n", allowlist, n+1, m[1])
		case unreached[m[1]] == "":
			fmt.Printf("%s:%d: stale: a program links %s, or it is gone\n", allowlist, n+1, m[1])
		default:
			allowed[m[1]] = n + 1
			continue
		}
		bad++
	}
	keys := make([]string, 0, len(unreached))
	for k := range unreached {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if allowed[k] == 0 {
			fmt.Printf("%s: no program links %s, and %s does not say who calls it\n", unreached[k], k, allowlist)
			bad++
		}
	}
	fmt.Printf("%d functions linked by no program, %d allowlisted, %d problems\n", len(unreached), len(allowed), bad)
	if bad > 0 {
		os.Exit(1)
	}
}

// linked builds the programs and returns every module symbol they link,
// without type arguments or method-value suffix, and with every dotted
// prefix of each, so that a reached closure marks its function.
func linked() map[string]bool {
	tmp, err := os.MkdirTemp("", "reach")
	check(err)
	defer os.RemoveAll(tmp)
	build := []string{"build", "-o", tmp + string(filepath.Separator), "-gcflags=all=-l", "-ldflags=-dumpdep"}
	dump := run(".", append(build, "./cmd/...", "./examples/...")...) + run("bench", append(build, ".")...)
	reached := map[string]bool{}
	for _, line := range strings.Split(dump, "\n") {
		for _, s := range strings.Split(line, " -> ") {
			if !strings.HasPrefix(s, module) || auxRE.MatchString(s) {
				continue
			}
			for typeArgs.MatchString(s) {
				s = typeArgs.ReplaceAllString(s, "")
			}
			s, _, _ = strings.Cut(s, " <") // linker flags, e.g. <ReflectMethod>
			s = strings.ReplaceAll(strings.TrimPrefix(s, module), "-fm", "")
			for i := len(s); i > strings.LastIndexByte(s, '/'); i = strings.LastIndexByte(s, '.') {
				s = s[:i]
				reached[s] = true
			}
		}
	}
	return reached
}

// declared returns, by symbol, the position of each non-test function
// outside package main that is not in reached.
func declared(reached map[string]bool) map[string]string {
	wd, err := os.Getwd()
	check(err)
	unreached, fset := map[string]string{}, token.NewFileSet()
	for dec := json.NewDecoder(strings.NewReader(run(".", "list", "-json", "./..."))); dec.More(); {
		var p struct {
			Name, Dir, ImportPath string
			GoFiles               []string
		}
		check(dec.Decode(&p))
		if p.Name == "main" {
			continue
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			check(err)
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name != "_" {
					key := strings.TrimPrefix(p.ImportPath, module) + "." + receiver(fn) + fn.Name.Name
					if !reached[key] {
						rel, _ := filepath.Rel(wd, path)
						unreached[key] = fmt.Sprintf("%s:%d", rel, fset.Position(fn.Pos()).Line)
					}
				}
			}
		}
	}
	return unreached
}

// receiver spells a method's receiver as the linker does, "T." or
// "(*T).", without type parameters; "" for a plain function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	t, star := fn.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, true
	}
	if g, ok := t.(*ast.IndexExpr); ok {
		t = g.X
	} else if g, ok := t.(*ast.IndexListExpr); ok {
		t = g.X
	}
	if star {
		return "(*" + t.(*ast.Ident).Name + ")."
	}
	return t.(*ast.Ident).Name + "."
}

// run runs the go command in dir and returns what it printed.
func run(dir string, args ...string) string {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		log.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, out)
	}
	return string(out)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
