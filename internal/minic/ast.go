package minic

import (
	"repro/internal/types"
)

// This file defines the abstract syntax tree. The parser produces an
// untyped tree; the checker annotates expressions with their types and
// binds identifiers to symbols; the pre-compiler pass inserts PollPoint
// statements and fills in Site records.

// Node is the common interface of AST nodes.
type Node interface {
	Position() Pos
}

// ---- Expressions ----

// Expr is an expression node. After checking, Type() returns the
// expression's type and IsLValue reports addressability.
type Expr interface {
	Node
	Type() *types.Type
	exprNode()
}

// exprBase carries the common checked-expression state.
type exprBase struct {
	Pos Pos
	// T is filled in by the checker.
	T *types.Type
	// LValue is set by the checker when the expression designates an
	// object with an address.
	LValue bool
}

func (e *exprBase) Position() Pos     { return e.Pos }
func (e *exprBase) Type() *types.Type { return e.T }
func (e *exprBase) exprNode()         {}

// IntLit is an integer (or character) literal.
type IntLit struct {
	exprBase
	Val uint64
}

// FloatLit is a floating literal.
type FloatLit struct {
	exprBase
	Val float64
}

// StrLit is a string literal. The checker assigns it a char[n+1] global
// block; Sym names the synthetic global holding the bytes.
type StrLit struct {
	exprBase
	Val string
	Sym *VarSymbol
}

// Ident is a variable reference, bound to Sym by the checker.
type Ident struct {
	exprBase
	Name string
	Sym  *VarSymbol
}

// Unary is a prefix operator: one of - + ! ~ * & ++ --.
type Unary struct {
	exprBase
	Op string
	X  Expr
}

// Postfix is a postfix ++ or --.
type Postfix struct {
	exprBase
	Op string
	X  Expr
}

// Binary is an infix operator excluding assignment.
type Binary struct {
	exprBase
	Op   string
	X, Y Expr
	// Conv is the type an arithmetic comparison converts both operands to
	// (the usual arithmetic conversions), set by the checker; nil otherwise.
	Conv *types.Type
}

// Assign is an assignment, possibly compound (Op is "=", "+=", ...).
type Assign struct {
	exprBase
	Op   string
	X, Y Expr
	// Conv is the type an arithmetic compound assignment computes at
	// before converting back to the target's, set by the checker: the
	// usual arithmetic conversions of both operands, or the promoted
	// target for a shift; nil otherwise.
	Conv *types.Type
}

// Cond is the ternary conditional operator.
type Cond struct {
	exprBase
	C, X, Y Expr
}

// Index is X[I]; X has array or pointer type.
type Index struct {
	exprBase
	X, I Expr
}

// Member is X.Name or X->Name (Arrow true).
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	// FieldIdx is resolved by the checker.
	FieldIdx int
}

// Call is a function or builtin call. After checking, Func is set for
// user functions, or Builtin names a runtime builtin.
type Call struct {
	exprBase
	Name    string
	Args    []Expr
	Func    *FuncSymbol
	Builtin string
	// MallocElem is the element type of the block allocated by a malloc
	// builtin call, inferred from the enclosing cast or assignment; the
	// VM needs it to register the block in the MSRLT with its true type.
	MallocElem *types.Type
}

// Cast is an explicit type conversion.
type Cast struct {
	exprBase
	To *types.Type
	X  Expr
}

// SizeofExpr is sizeof(expr) or sizeof(type); exactly one of X, Of is set.
// Its value is machine-dependent and therefore evaluated at run time.
type SizeofExpr struct {
	exprBase
	X  Expr
	Of *types.Type
}

// ---- Statements ----

// Stmt is a statement node. A statement is addressed by identity: a
// migration site names its statement and the chain of statements enclosing
// it, and the VM compiles each statement once per process into code that
// the site's resume entry enters.
type Stmt interface {
	Node
	stmtNode()
}

type stmtBase struct {
	Pos Pos
}

func (s *stmtBase) Position() Pos { return s.Pos }
func (s *stmtBase) stmtNode()     {}

// DeclStmt declares one local variable with an optional initializer.
// (Multi-declarator lines are split into consecutive DeclStmts.)
type DeclStmt struct {
	stmtBase
	Sym  *VarSymbol
	Init Expr
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	stmtBase
	X Expr
	// Site is non-nil when X contains a call to a migratory function:
	// this statement is then a resume point for nested migration.
	Site *Site
}

// If is a conditional.
type If struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop. DoWhile distinguishes do { } while (c);.
type While struct {
	stmtBase
	Cond    Expr
	Body    Stmt
	DoWhile bool
}

// For is a for loop; Init/Cond/Post may be nil.
type For struct {
	stmtBase
	Init Expr
	Cond Expr
	Post Expr
	Body Stmt
}

// Return returns from the function; X may be nil.
type Return struct {
	stmtBase
	X Expr
}

// Break exits the innermost loop.
type Break struct{ stmtBase }

// Continue advances the innermost loop.
type Continue struct{ stmtBase }

// Block is a brace-enclosed statement list with its own scope.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// Empty is the null statement ";".
type Empty struct{ stmtBase }

// PollPoint is a migration poll point inserted by the pre-compiler (or
// written explicitly as the migrate_here(); intrinsic). When execution
// reaches it, the run-time checks whether a migration request is pending.
type PollPoint struct {
	stmtBase
	Site *Site
	// Origin records how the poll point got here: "loop", "entry", or
	// "explicit".
	Origin string
}

// ---- Symbols ----

// VarKind classifies variable symbols.
type VarKind uint8

const (
	// GlobalVar is a file-scope variable (one MSR block in the global
	// segment).
	GlobalVar VarKind = iota
	// LocalVar is a function-scope variable (one MSR block in the
	// active frame).
	LocalVar
	// ParamVar is a function parameter, stored like a local.
	ParamVar
)

// VarSymbol is a declared variable.
type VarSymbol struct {
	Name string
	Type *types.Type
	Kind VarKind
	Pos  Pos
	// Index is the block Minor number: the declaration index among
	// globals, or the variable index within the function frame.
	Index int
	// AddrTaken is set by the checker when &x occurs, or when the
	// variable is an aggregate (whose address leaks through indexing
	// and decay). Address-taken variables are conservatively live at
	// every poll site.
	AddrTaken bool
	// Str is the content of the synthetic global for a string literal,
	// or of a char-array global initialized from a string constant.
	Str string
	// Init is the initializer of a global, if any: a constant expression
	// the process evaluates on its machine before main runs.
	Init Expr
}

// Site is a migration site: either a poll point or a statement calling a
// migratory function. The execution-state transfer records, per active
// frame, the site the frame is stopped at; restoration fast-forwards each
// function to its site.
type Site struct {
	// ID numbers sites within their function, in pre-order.
	ID int
	// Stmt is the statement the site addresses.
	Stmt Stmt
	// Chain is the ancestor path from the function body (inclusive) to
	// Stmt (inclusive); the resume machinery descends along it.
	Chain []Stmt
	// Live is the set of variables (locals and parameters) whose values
	// are needed beyond this site, in frame index order.
	Live []*VarSymbol
	// Call is the migratory call of a call site; nil at a poll point.
	Call *Call
}

// FuncSymbol is a defined function.
type FuncSymbol struct {
	Name   string
	Pos    Pos
	Result *types.Type
	Params []*VarSymbol
	// Locals lists every variable of the frame: parameters first, then
	// locals in declaration order. Index fields match positions here.
	Locals []*VarSymbol
	Body   *Block

	// Sites are the function's migration sites in ID order (filled by
	// the pre-compiler pass).
	Sites []*Site
	// Migratory is true if the function contains a poll point or calls
	// a migratory function.
	Migratory bool
}

// SiteByID returns the site with the given ID, or nil.
func (f *FuncSymbol) SiteByID(id int) *Site {
	for _, s := range f.Sites {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// Program is a checked MigC compilation unit.
type Program struct {
	// Structs in declaration order.
	Structs []*types.Type
	// Globals in declaration order (indices match VarSymbol.Index).
	// Includes synthetic globals for string literals.
	Globals []*VarSymbol
	// Funcs in declaration order.
	Funcs []*FuncSymbol
	// TI is the Type Information table for the program: every type any
	// block can take, registered in deterministic order.
	TI *types.TI

	funcsByName map[string]*FuncSymbol
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncSymbol { return p.funcsByName[name] }
