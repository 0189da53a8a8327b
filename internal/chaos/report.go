package chaos

import (
	"encoding/json"
	"fmt"
	"html/template"
	"os"
	"sort"
	"time"
)

// Report is the full record of one scenario run: what was generated, what
// happened, and how the SLOs scored. It is the JSON artifact; the HTML
// report renders the same struct.
type Report struct {
	Scenario    string    `json:"scenario"`
	Description string    `json:"description,omitempty"`
	Seed        uint64    `json:"seed"`
	PlanDigest  string    `json:"planDigest"`
	StartedAt   time.Time `json:"startedAt"`
	FinishedAt  time.Time `json:"finishedAt"`
	Pass        bool      `json:"pass"`

	Fleet   FleetReport   `json:"fleet"`
	Load    LoadReport    `json:"load"`
	Chaos   []ChaosRecord `json:"chaos,omitempty"`
	Probes  ProbeReport   `json:"probes"`
	Verdict VerdictReport `json:"verdicts"`
	SLOs    []SLOCheck    `json:"slos"`

	// FailureDetail carries daemon output tails when the run errored or
	// an SLO failed; omitted on clean passes to keep reports small.
	FailureDetail map[string]string `json:"failureDetail,omitempty"`
}

// FleetReport summarises topology and workload.
type FleetReport struct {
	Nodes       int            `json:"nodes"`
	Banks       int            `json:"banks"`
	FaultyBanks int            `json:"faultyBanks"`
	Events      int            `json:"events"`
	PerTemplate map[string]int `json:"banksPerTemplate"`
}

// LoadReport summarises delivery.
type LoadReport struct {
	Sent           int     `json:"sent"`
	Accepted       int     `json:"accepted"`
	Rejected       int     `json:"rejected"`
	Dropped        int     `json:"dropped"`
	Retries        int     `json:"retries"`
	PoisonSent     int     `json:"poisonSent"`
	PoisonAccepted int     `json:"poisonAccepted"`
	P99IngestWait  float64 `json:"p99IngestWaitSeconds"`
	Quarantined    uint64  `json:"quarantined"`
}

// ChaosRecord is one executed injection.
type ChaosRecord struct {
	At       string `json:"at"` // offset from load start
	Action   string `json:"action"`
	Target   string `json:"target"`
	Detail   string `json:"detail,omitempty"`
	Error    string `json:"error,omitempty"`
	Recovery string `json:"recovery,omitempty"` // kill_node: time to full recovery
}

// ProbeReport summarises front-door availability sampling.
type ProbeReport struct {
	Samples  int     `json:"samples"`
	ReadyOK  int     `json:"readyOK"`
	Availab  float64 `json:"readyzAvailability"`
	Interval string  `json:"interval"`
}

// VerdictReport is the zero-verdict-loss comparison.
type VerdictReport struct {
	Compared  bool     `json:"compared"`
	Reference int      `json:"referenceActions,omitempty"`
	Fleet     int      `json:"fleetActions,omitempty"`
	Missing   []string `json:"missing,omitempty"`
	Extra     []string `json:"extra,omitempty"`
}

// SLOCheck is one evaluated objective.
type SLOCheck struct {
	Name     string `json:"name"`
	Target   string `json:"target"`
	Observed string `json:"observed"`
	Pass     bool   `json:"pass"`
}

// evaluateSLOs scores the report against the scenario's SLO spec and
// stamps Report.SLOs and Report.Pass. Recovery durations come from the
// chaos records (kill_node entries carry them).
func (r *Report) evaluateSLOs(slo SLOSpec) {
	add := func(name, target, observed string, pass bool) {
		r.SLOs = append(r.SLOs, SLOCheck{Name: name, Target: target, Observed: observed, Pass: pass})
	}

	if slo.RecoveryTime > 0 {
		worst, n := time.Duration(0), 0
		for _, c := range r.Chaos {
			if c.Action != ActKillNode || c.Recovery == "" {
				continue
			}
			d, err := time.ParseDuration(c.Recovery)
			if err != nil {
				continue
			}
			n++
			if d > worst {
				worst = d
			}
		}
		add("recovery_time", "<= "+slo.RecoveryTime.String(), worst.String(),
			n > 0 && worst <= slo.RecoveryTime)
	}
	if slo.ReadyzAvailability >= 0 {
		add("readyz_availability",
			fmt.Sprintf(">= %.4f", slo.ReadyzAvailability),
			fmt.Sprintf("%.4f (%d/%d)", r.Probes.Availab, r.Probes.ReadyOK, r.Probes.Samples),
			r.Probes.Samples > 0 && r.Probes.Availab >= slo.ReadyzAvailability)
	}
	if slo.ZeroVerdictLoss {
		add("zero_verdict_loss", "missing=0 extra=0",
			fmt.Sprintf("missing=%d extra=%d (ref=%d fleet=%d)",
				len(r.Verdict.Missing), len(r.Verdict.Extra), r.Verdict.Reference, r.Verdict.Fleet),
			r.Verdict.Compared && len(r.Verdict.Missing) == 0 && len(r.Verdict.Extra) == 0 &&
				r.Verdict.Reference > 0)
	}
	if r.Load.PoisonSent > 0 || slo.MaxPoisonAccepted > 0 {
		add("max_poison_accepted",
			fmt.Sprintf("<= %d", slo.MaxPoisonAccepted),
			fmt.Sprintf("%d of %d", r.Load.PoisonAccepted, r.Load.PoisonSent),
			r.Load.PoisonAccepted <= slo.MaxPoisonAccepted)
	}

	r.Pass = true
	for _, c := range r.SLOs {
		if !c.Pass {
			r.Pass = false
		}
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteHTML renders the standalone HTML report.
func (r *Report) WriteHTML(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reportTemplate.Execute(f, r)
}

// TemplateNames returns the per-template bank counts in stable order for
// the HTML report.
func (r *Report) TemplateNames() []string {
	names := make([]string, 0, len(r.Fleet.PerTemplate))
	for n := range r.Fleet.PerTemplate {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunDuration formats the wall-clock span.
func (r *Report) RunDuration() string {
	return r.FinishedAt.Sub(r.StartedAt).Round(time.Millisecond).String()
}

var reportTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>cordial-chaos: {{.Scenario}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.badge { display: inline-block; padding: .2rem .7rem; border-radius: .3rem; color: #fff; font-weight: 600; }
.pass { background: #1a7f37; } .fail { background: #cf222e; }
table { border-collapse: collapse; margin-top: .5rem; }
th, td { border: 1px solid #d0d7de; padding: .35rem .7rem; text-align: left; font-size: .9rem; }
th { background: #f6f8fa; }
tr.bad td { background: #ffebe9; }
code { background: #f6f8fa; padding: .1rem .3rem; border-radius: .2rem; }
.meta { color: #57606a; font-size: .85rem; }
pre { background: #f6f8fa; padding: .7rem; overflow-x: auto; font-size: .8rem; }
</style>
</head>
<body>
<h1>cordial-chaos — {{.Scenario}}
{{if .Pass}}<span class="badge pass">PASS</span>{{else}}<span class="badge fail">FAIL</span>{{end}}</h1>
<p class="meta">{{.Description}}</p>
<p class="meta">seed <code>{{.Seed}}</code> · plan digest <code>{{.PlanDigest}}</code> ·
started {{.StartedAt.Format "2006-01-02 15:04:05"}} · ran {{.RunDuration}}</p>

<h2>SLOs</h2>
<table>
<tr><th>objective</th><th>target</th><th>observed</th><th>result</th></tr>
{{range .SLOs}}<tr{{if not .Pass}} class="bad"{{end}}>
<td>{{.Name}}</td><td><code>{{.Target}}</code></td><td><code>{{.Observed}}</code></td>
<td>{{if .Pass}}pass{{else}}FAIL{{end}}</td></tr>
{{end}}</table>

<h2>Fleet</h2>
<table>
<tr><th>nodes</th><th>banks</th><th>faulty</th><th>events</th></tr>
<tr><td>{{.Fleet.Nodes}}</td><td>{{.Fleet.Banks}}</td><td>{{.Fleet.FaultyBanks}}</td>
<td>{{.Fleet.Events}}</td></tr>
</table>
<table>
<tr><th>template</th><th>banks</th></tr>
{{$f := .Fleet}}{{range .TemplateNames}}<tr><td>{{.}}</td><td>{{index $f.PerTemplate .}}</td></tr>
{{end}}</table>

<h2>Load</h2>
<table>
<tr><th>sent</th><th>accepted</th><th>rejected</th><th>dropped</th><th>retries</th>
<th>poison sent</th><th>poison accepted</th><th>p99 ingest wait</th><th>quarantined</th></tr>
<tr><td>{{.Load.Sent}}</td><td>{{.Load.Accepted}}</td>
<td>{{.Load.Rejected}}</td><td>{{.Load.Dropped}}</td><td>{{.Load.Retries}}</td>
<td>{{.Load.PoisonSent}}</td><td>{{.Load.PoisonAccepted}}</td>
<td>{{printf "%.4fs" .Load.P99IngestWait}}</td><td>{{.Load.Quarantined}}</td></tr>
</table>

{{if .Chaos}}<h2>Chaos timeline</h2>
<table>
<tr><th>at</th><th>action</th><th>target</th><th>detail</th><th>recovery</th><th>error</th></tr>
{{range .Chaos}}<tr{{if .Error}} class="bad"{{end}}>
<td>{{.At}}</td><td>{{.Action}}</td><td>{{.Target}}</td><td>{{.Detail}}</td>
<td>{{.Recovery}}</td><td>{{.Error}}</td></tr>
{{end}}</table>{{end}}

<h2>Availability</h2>
<p>{{.Probes.ReadyOK}} of {{.Probes.Samples}} front-door <code>/readyz</code> probes returned 200
({{printf "%.4f" .Probes.Availab}}), sampled every {{.Probes.Interval}}.</p>

{{if .Verdict.Compared}}<h2>Verdict comparison</h2>
<p>reference {{.Verdict.Reference}} actions · fleet {{.Verdict.Fleet}} actions ·
missing {{len .Verdict.Missing}} · extra {{len .Verdict.Extra}}</p>
{{if .Verdict.Missing}}<pre>missing:
{{range .Verdict.Missing}}{{.}}
{{end}}</pre>{{end}}
{{if .Verdict.Extra}}<pre>extra:
{{range .Verdict.Extra}}{{.}}
{{end}}</pre>{{end}}{{end}}

{{if .FailureDetail}}<h2>Daemon output tails</h2>
{{range $name, $tail := .FailureDetail}}<h3>{{$name}}</h3><pre>{{$tail}}</pre>
{{end}}{{end}}
</body>
</html>
`))
