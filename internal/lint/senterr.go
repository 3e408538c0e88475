package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

// SentErr enforces the sentinel-error discipline around internal/core's
// typed sentinels (ErrServerDown, ErrMasterDown, ErrRetryBudgetExhausted,
// ErrLocalFallback, ErrExecRefused). The live path wraps these through several layers
// (`%w: %w` chains), so identity comparison and string matching both break
// the moment a wrap is added or a message is reworded. Outside _test.go
// files it reports:
//
//   - `err == core.ErrX` / `err != core.ErrX`: wrapped chains never
//     compare equal; use errors.Is;
//   - `err.Error() == "..."` and strings.Contains/HasPrefix/HasSuffix/
//     EqualFold over err.Error(): error text is presentation, not
//     protocol;
//   - fmt.Errorf passing a core sentinel under a verb other than %w:
//     the sentinel vanishes from the errors.Is chain.
var SentErr = &Analyzer{
	Name: "senterr",
	Doc:  "core sentinel errors must be wrapped with %w and compared with errors.Is",
	Run:  runSentErr,
}

func runSentErr(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n)
			case *ast.CallExpr:
				checkStringMatch(pass, n)
				checkSentinelWrap(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkSentinelCompare(pass *Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	for _, side := range [2]ast.Expr{bin.X, bin.Y} {
		if v := coreSentinel(pass.TypesInfo, side); v != nil {
			other := bin.Y
			if side == bin.Y {
				other = bin.X
			}
			if isNilLiteral(pass.TypesInfo, other) {
				continue
			}
			pass.Reportf(bin.Pos(),
				"sentinel core.%s compared with %s: wrapped errors never compare equal, use errors.Is",
				v.Name(), bin.Op)
			return
		}
	}
	// err.Error() == "..." — string matching on rendered error text.
	for _, side := range [2]ast.Expr{bin.X, bin.Y} {
		if errorTextCall(pass.TypesInfo, side) {
			pass.Reportf(bin.Pos(),
				"comparing err.Error() text: match errors with errors.Is/errors.As, not strings")
			return
		}
	}
}

// stringMatchFuncs are the strings helpers that, applied to err.Error(),
// amount to error identity via text.
var stringMatchFuncs = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true, "EqualFold": true,
}

func checkStringMatch(pass *Pass, call *ast.CallExpr) {
	obj := calleeObject(pass.TypesInfo, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || !stringMatchFuncs[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		if errorTextCall(pass.TypesInfo, arg) {
			pass.Reportf(call.Pos(),
				"strings.%s over err.Error(): match errors with errors.Is/errors.As, not text",
				fn.Name())
			return
		}
	}
}

// errorTextCall reports whether expr is a call of the Error() method on an
// error value.
func errorTextCall(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	recv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	return isErrorType(recv.Type)
}

// checkSentinelWrap flags fmt.Errorf calls that pass a core sentinel under
// a verb other than %w.
func checkSentinelWrap(pass *Pass, call *ast.CallExpr) {
	if !isPkgFunc(calleeObject(pass.TypesInfo, call), "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	format, ok := constantString(pass.TypesInfo, call.Args[0])
	verbs := parseVerbs(format)
	for i, arg := range call.Args[1:] {
		v := coreSentinel(pass.TypesInfo, arg)
		if v == nil {
			continue
		}
		if !ok || verbs == nil {
			// Non-constant or indexed format: settle for presence of %w.
			if containsWrapVerb(format) {
				continue
			}
			pass.Reportf(arg.Pos(),
				"sentinel core.%s passed to fmt.Errorf without %%w: it disappears from the errors.Is chain",
				v.Name())
			continue
		}
		if i >= len(verbs) || verbs[i] != 'w' {
			pass.Reportf(arg.Pos(),
				"sentinel core.%s formatted with a verb other than %%w: wrap it so errors.Is still sees it",
				v.Name())
		}
	}
}

func constantString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// parseVerbs returns the verb letter consumed by each successive argument
// of a simple printf format, or nil when the format uses features (indexed
// arguments, * width) that break positional mapping.
func parseVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Flags, width, precision.
		for i < len(format) {
			c := format[i]
			if c == '[' || c == '*' {
				return nil
			}
			if (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '#' || c == ' ' || c == '.' {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}

// wrapVerbRE matches a %w verb, including the indexed form %[1]w.
var wrapVerbRE = regexp.MustCompile(`%(\[\d+\])?w`)

func containsWrapVerb(format string) bool {
	return wrapVerbRE.MatchString(format)
}
