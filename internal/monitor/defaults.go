package monitor

import "time"

// DefaultRules is a conservative built-in rule set covering the stack's
// degradation ladder, used by raidmon when no -rules file is given. The
// windows assume roughly 1-second sampling; a rule over a metric the
// process never emits simply stays ok.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "shard-retry-burn", Metric: "shard.retry.total",
			Kind: RuleRate, Op: ">", Value: 0.5,
			Window: Duration(30 * time.Second), For: Duration(10 * time.Second),
			Severity: SeverityWarning,
		},
		{
			Name: "shard-quarantine", Metric: "shard.quarantine.total",
			Kind: RuleThreshold, Op: ">", Value: 0,
			Window: Duration(5 * time.Minute), Severity: SeverityWarning,
		},
		{
			Name: "retry-exhausted", Metric: "shard.retry.exhausted",
			Kind: RuleThreshold, Op: ">", Value: 0,
			Window: Duration(5 * time.Minute), Severity: SeverityCritical,
		},
		{
			Name: "scrub-repairs", Metric: "raid.scrub.repairs",
			Kind: RuleThreshold, Op: ">", Value: 2,
			Window: Duration(5 * time.Minute), For: Duration(5 * time.Second),
			Severity: SeverityWarning,
		},
		{
			Name: "degraded-reads", Metric: "raid.degraded_reads",
			Kind: RuleRate, Op: ">", Value: 1,
			Window: Duration(30 * time.Second), For: Duration(10 * time.Second),
			Severity: SeverityWarning,
		},
		{
			Name: "node-down", Metric: "nodestore.nodes_down",
			Kind: RuleThreshold, Op: ">", Value: 0,
			Severity: SeverityCritical,
		},
		{
			Name: "breaker-open", Metric: "store.breaker.open",
			Kind: RuleThreshold, Op: ">", Value: 0,
			Window: Duration(5 * time.Minute), Severity: SeverityWarning,
		},
		{
			Name: "goroutine-leak", Metric: "go.goroutines",
			Kind: RuleThreshold, Op: ">", Value: 10000,
			Severity: SeverityCritical,
		},
	}
}
