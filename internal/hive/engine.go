package hive

import (
	"fmt"
	"strings"

	"tez/internal/am"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
)

// Engine is the mini-Hive: a catalog plus planner configuration.
type Engine struct {
	// BroadcastThreshold is the maximum build-side size for a map join
	// (Tez backend only). Zero disables broadcast joins.
	BroadcastThreshold int64
	// EnablePruning turns on dynamic partition pruning (Tez backend only).
	EnablePruning bool
	// Exec tunes the relop compiler (partitions, split size, …).
	Exec relop.Config

	tables map[string]*relop.Table
}

// NewEngine creates an engine with an empty catalog.
func NewEngine() *Engine {
	return &Engine{
		BroadcastThreshold: 64 * 1024,
		EnablePruning:      true,
		tables:             map[string]*relop.Table{},
	}
}

// Register adds tables to the catalog.
func (e *Engine) Register(tables ...*relop.Table) {
	for _, t := range tables {
		e.tables[strings.ToLower(t.Name)] = t
	}
}

// Plan parses and lowers a query to a relop plan storing into outPath.
// forMR restricts physical choices to what the MapReduce backend supports.
func (e *Engine) Plan(sql, outPath string, forMR bool) ([]*relop.Node, error) {
	st, err := Parse(sql)
	var root *relop.Node
	if err == nil {
		pc := &planContext{eng: e, forMR: forMR}
		root, err = pc.plan(st, outPath)
	}
	if err != nil {
		return nil, fmt.Errorf("hive: %w", err)
	}
	return []*relop.Node{root}, nil
}

// RunTez executes the query as one Tez DAG in the given session (the Hive
// 0.13+ execution model of §5.2).
func (e *Engine) RunTez(sess *am.Session, name, sql, outPath string) (am.DAGResult, error) {
	roots, err := e.Plan(sql, outPath, false)
	if err != nil {
		return am.DAGResult{}, err
	}
	return relop.RunTez(sess, e.Exec, name, roots)
}

// RunMR executes the query as a chain of MapReduce-shaped jobs (the
// pre-Tez Hive execution model).
func (e *Engine) RunMR(plat *platform.Platform, amCfg am.Config, name, sql, outPath string) (relop.MRStats, error) {
	roots, err := e.Plan(sql, outPath, true)
	if err != nil {
		return relop.MRStats{}, err
	}
	return relop.RunMR(plat, amCfg, e.Exec, name, roots)
}

// Query is a convenience that runs on Tez and reads the result back.
func (e *Engine) Query(sess *am.Session, plat *platform.Platform, name, sql string) ([]row.Row, error) {
	out := fmt.Sprintf("/results/%s", name)
	plat.FS.DeletePrefix(out + "/")
	if _, err := e.RunTez(sess, name, sql, out); err != nil {
		return nil, err
	}
	return relop.ReadStored(plat.FS, out)
}
