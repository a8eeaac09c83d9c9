// Package hive is the SQL-on-Tez engine of §5.2 in miniature: a SQL-subset
// statement grammar on relop's token stream and expression language, a
// catalog, and a planner that lowers queries to relop plans.
// Like Hive 0.13+, it compiles to a single Tez DAG with broadcast (map)
// joins and dynamic partition pruning when allowed, or to a chain of
// MapReduce-shaped jobs (the pre-Tez Hive execution model) for the
// baseline measurements of Figures 8–9.
package hive

import (
	"strings"

	"tez/internal/relop"
)

// --- AST ---

type selectStmt struct {
	Select  []selectItem
	From    tableRef
	Joins   []joinClause
	Where   *relop.ExprTree
	GroupBy []*relop.ExprTree
	Having  *relop.ExprTree
	OrderBy []orderItem
	Limit   int // 0 = none
}

type selectItem struct {
	Expr  *relop.ExprTree
	Alias string
}

type tableRef struct {
	Name  string
	Alias string
}

type joinClause struct {
	Table tableRef
	On    *relop.ExprTree
}

type orderItem struct {
	Expr *relop.ExprTree
	Desc bool
}

// Parse parses one SELECT statement. Table names, table aliases and
// column references are case-insensitive: they are folded to lower case
// here, once, after parsing (select aliases stay as written).
func Parse(sql string) (*selectStmt, error) {
	p, err := relop.NewParser(sql)
	if err != nil {
		return nil, err
	}
	st, err := parseSelect(p)
	if err != nil {
		return nil, err
	}
	if err := p.ExpectEOF(); err != nil {
		return nil, err
	}
	for _, it := range st.Select {
		lowerIdents(it.Expr)
	}
	st.From = st.From.lower()
	for i := range st.Joins {
		st.Joins[i].Table = st.Joins[i].Table.lower()
		lowerIdents(st.Joins[i].On)
	}
	lowerIdents(st.Where)
	for _, g := range st.GroupBy {
		lowerIdents(g)
	}
	lowerIdents(st.Having)
	for _, o := range st.OrderBy {
		lowerIdents(o.Expr)
	}
	return st, nil
}

func (tr tableRef) lower() tableRef {
	return tableRef{Name: strings.ToLower(tr.Name), Alias: strings.ToLower(tr.Alias)}
}

func lowerIdents(e *relop.ExprTree) {
	if e == nil {
		return
	}
	if e.Kind == "ident" {
		e.Name = strings.ToLower(e.Name)
	}
	for _, a := range e.Args {
		lowerIdents(a)
	}
}

func parseSelect(p *relop.Parser) (*selectStmt, error) {
	st := &selectStmt{}
	if err := p.ExpectKw("select"); err != nil {
		return nil, err
	}
	var err error
	for {
		item := selectItem{}
		if item.Expr, err = p.Expr(); err != nil {
			return nil, err
		}
		if p.Kw("as") {
			if item.Alias, err = p.Ident(); err != nil {
				return nil, err
			}
		}
		st.Select = append(st.Select, item)
		if !p.Op(",") {
			break
		}
	}
	if err := p.ExpectKw("from"); err != nil {
		return nil, err
	}
	if st.From, err = parseTableRef(p); err != nil {
		return nil, err
	}
	for p.Kw("join") {
		jc := joinClause{}
		if jc.Table, err = parseTableRef(p); err != nil {
			return nil, err
		}
		if err := p.ExpectKw("on"); err != nil {
			return nil, err
		}
		if jc.On, err = p.Expr(); err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, jc)
	}
	if p.Kw("where") {
		if st.Where, err = p.Expr(); err != nil {
			return nil, err
		}
	}
	if p.Kw("group") {
		if err := p.ExpectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.Op(",") {
				break
			}
		}
	}
	if p.Kw("having") {
		if st.Having, err = p.Expr(); err != nil {
			return nil, err
		}
	}
	if p.Kw("order") {
		if err := p.ExpectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			it := orderItem{Expr: e, Desc: p.Kw("desc")}
			if !it.Desc {
				p.Kw("asc")
			}
			st.OrderBy = append(st.OrderBy, it)
			if !p.Op(",") {
				break
			}
		}
	}
	if p.Kw("limit") {
		if st.Limit, err = p.Int(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseTableRef parses "name [alias]"; the alias defaults to the name.
func parseTableRef(p *relop.Parser) (tableRef, error) {
	name, err := p.Ident()
	if err != nil {
		return tableRef{}, err
	}
	tr := tableRef{Name: name, Alias: name}
	if t := p.Peek(); t.Kind == relop.TokIdent && !keywords[strings.ToLower(t.Text)] {
		tr.Alias, _ = p.Ident() // cannot fail: the token is an identifier
	}
	return tr, nil
}

// keywords are the words that cannot be a table alias.
var keywords = map[string]bool{
	"select": true, "from": true, "join": true, "on": true, "where": true,
	"group": true, "by": true, "order": true, "limit": true, "as": true,
	"and": true, "or": true, "not": true, "desc": true, "asc": true,
	"between": true, "in": true, "having": true,
}
