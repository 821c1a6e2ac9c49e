package wire

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/incident"
)

// The JSON payloads and text views of the ops in the table: what HTTP
// serves and qosctl prints.

// pick chooses the JSON payload of an op that answers with an index when
// no key is named and with one record otherwise.
func pick(key string, index, one any) any {
	if key == "" {
		return index
	}
	return one
}

func devicesText(_ Request, r Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %-20s %-20s %s\n", "DEVICE", "CLASS", "CAPACITY", "AVAILABLE", "UP")
	for _, d := range r.Devices {
		fmt.Fprintf(&b, "%-12s %-12s %-20s %-20s %v\n", d.ID, d.Class, formatVec(d.Capacity), formatVec(d.Available), d.Up)
	}
	return b.String()
}

func servicesText(_ Request, r Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-22s %-10s %s\n", "INSTANCE", "TYPE", "SIZE(MB)", "ATTRS")
	for _, s := range r.Services {
		fmt.Fprintf(&b, "%-20s %-22s %-10g %s\n", s.Name, s.Type, s.SizeMB, formatAttrs(s.Attrs))
	}
	return b.String()
}

func sessionsText(_ Request, r Response) string {
	var b strings.Builder
	for _, id := range r.Sessions {
		b.WriteString(id + "\n")
	}
	return b.String()
}

func sessionText(_ Request, r Response) string {
	s := r.Session
	if s == nil {
		return "(no session)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "session %s (portal %s, cost %.4f)\n", s.ID, s.ClientDevice, s.Cost)
	fmt.Fprintf(&b, "  composition %.1fms  distribution %.1fms  downloading %.1fms  init/handoff %.1fms\n",
		s.Timing.CompositionMs, s.Timing.DistributionMs, s.Timing.DownloadingMs, s.Timing.InitOrHandoffMs)
	for _, k := range sortedKeys(s.Placement) {
		fmt.Fprintf(&b, "  %-24s -> %s\n", k, s.Placement[k])
	}
	for _, k := range sortedKeys(s.Rates) {
		fmt.Fprintf(&b, "  rate %-22s = %.1f fps\n", k, s.Rates[k])
	}
	if s.Summary != "" {
		fmt.Fprintf(&b, "  composition summary: %s\n", s.Summary)
	}
	return b.String()
}

func traceText(_ Request, r Response) string {
	return fmt.Sprintf("trace %d (session %s, %.2fms)\n", r.Trace.ID, r.Trace.Session, r.Trace.DurMs) + r.Trace.Render()
}

func flightText(req Request, r Response) string {
	var b strings.Builder
	if req.SessionID == "" {
		fmt.Fprintf(&b, "%-16s %8s %8s %s\n", "SESSION", "ENTRIES", "TOTAL", "LAST")
		for _, s := range r.FlightSessions {
			fmt.Fprintf(&b, "%-16s %8d %8d %s\n", s.Session, s.Entries, s.Total, s.Last.Format(time.RFC3339))
		}
		return b.String()
	}
	fmt.Fprintf(&b, "flight %s (%d entries)\n", req.SessionID, len(r.Flight))
	for _, e := range r.Flight {
		b.WriteString(e.Format() + "\n")
	}
	return b.String()
}

func explainText(req Request, r Response) string {
	if req.SessionID != "" {
		return r.Explain.Render()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %8s %s\n", "SESSION", "RECORDS", "TOTAL", "LAST")
	for _, s := range r.ExplainSessions {
		fmt.Fprintf(&b, "%-16s %8d %8d %s\n", s.Session, s.Records, s.Total, s.Last.Format(time.RFC3339))
	}
	return b.String()
}

func statsText(_ Request, r Response) string {
	var b strings.Builder
	st := r.Stats
	fmt.Fprintf(&b, "solves: %d warm, %d cold", st.WarmSolves, st.ColdSolves)
	if st.WarmSpeedup > 0 {
		fmt.Fprintf(&b, " (last warm recovery explored %.1fx fewer nodes)", st.WarmSpeedup)
	}
	b.WriteString("\n")
	if pc := st.PlanCache; pc == nil {
		b.WriteString("plan cache: disabled\n")
	} else {
		fmt.Fprintf(&b, "plan cache: %d/%d entries, %d hits, %d misses, %d invalidations, %d evictions\n",
			pc.Entries, pc.Capacity, pc.Hits, pc.Misses, pc.Invalidations, pc.Evictions)
	}
	return b.String()
}

func timeseriesText(req Request, r Response) string {
	var b strings.Builder
	if req.Metric == "" {
		for _, name := range r.TimeseriesMetrics {
			b.WriteString(name + "\n")
		}
		return b.String()
	}
	ts := r.Timeseries
	fmt.Fprintf(&b, "%s (%d samples, every %.0fs)\n", ts.Metric, len(ts.Samples), ts.IntervalSeconds)
	for _, s := range ts.Samples {
		fmt.Fprintf(&b, "%s %g\n", s.T.Format(time.RFC3339), s.V)
	}
	return b.String()
}

// admissionText renders the gate snapshot or a class preview.
func admissionText(_ Request, r Response) string {
	info := r.Admission
	if info == nil || !info.Enabled {
		return "admission gate: disabled\n"
	}
	var b strings.Builder
	if d := info.Decision; d != nil {
		fmt.Fprintf(&b, "class %-12s verdict %-14s state %s", d.Class, d.Verdict, d.StateStr)
		if d.Escalated {
			b.WriteString(" (escalated by SLO burn)")
		}
		fmt.Fprintf(&b, "  burn %.2f\n", d.SLOBurn)
		if d.RetryAfterMs > 0 {
			fmt.Fprintf(&b, "  retry after %s\n", d.RetryAfter())
		}
		if d.Reason != "" {
			fmt.Fprintf(&b, "  %s\n", d.Reason)
		}
		return b.String()
	}
	st := info.Status
	fmt.Fprintf(&b, "effective state %s  configure-SLO burn %.2f\n", st.StateStr, st.SLOBurn)
	fmt.Fprintf(&b, "%-12s %-14s %-14s %-10s %9s %9s %9s\n",
		"CLASS", "DEGRADE-AT", "REJECT-AT", "RETRY", "ADMITTED", "DEGRADED", "REJECTED")
	tally := make(map[string]admission.ClassCounts, len(st.Classes))
	for _, c := range st.Classes {
		tally[c.Class] = c
	}
	names := sortedKeys(st.Policies)
	for name := range tally {
		if _, ok := st.Policies[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		pol, ok := st.Policies[name]
		if !ok {
			pol = st.Default
		}
		c := tally[name]
		fmt.Fprintf(&b, "%-12s %-14s %-14s %-10s %9d %9d %9d\n",
			name, stateOrNever(pol.DegradeAt), stateOrNever(pol.RejectAt),
			retryOrDefault(pol.RetryAfter), c.Admitted, c.Degraded, c.Rejected)
	}
	fmt.Fprintf(&b, "%-12s %-14s %-14s %-10s\n", "(default)",
		stateOrNever(st.Default.DegradeAt), stateOrNever(st.Default.RejectAt),
		retryOrDefault(st.Default.RetryAfter))
	return b.String()
}

func stateOrNever(s capacity.State) string {
	if s >= admission.Never {
		return "never"
	}
	return s.String()
}

func retryOrDefault(d time.Duration) string {
	if d <= 0 {
		d = admission.DefaultRetryAfter
	}
	return d.String()
}

func ledgerText(req Request, r Response) string {
	if req.SessionID != "" {
		return r.Ledger.Render()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %-10s %6s %5s %5s %9s %9s\n",
		"SESSION", "CLASS", "OUTCOME", "CFGS", "REC", "RST", "BROKEN-S", "DEGRAD-S")
	for _, s := range r.LedgerSessions {
		fmt.Fprintf(&b, "%-16s %-12s %-10s %6d %5d %5d %9.3f %9.3f\n",
			s.Session, s.Class, s.Outcome, s.Configures, s.Recoveries,
			s.Restorations, s.BrokenSec, s.DegradedSec)
	}
	return b.String()
}

func incidentsText(req Request, r Response) string {
	if req.Incident == "" {
		return incident.Render(r.Incidents)
	}
	return incident.RenderIncident(*r.Incident)
}

func formatVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func formatAttrs(m map[string]string) string {
	if len(m) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		parts = append(parts, k+"="+m[k])
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
