package incident

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

const timeFmt = "15:04:05.000"

// fmtDur renders a duration compactly for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0s"
	case d < time.Second:
		return d.Round(time.Millisecond).String()
	case d < time.Minute:
		return d.Round(10 * time.Millisecond).String()
	default:
		return d.Round(time.Second).String()
	}
}

// age is an incident's open→resolve (or open→now-unknowable, so
// open→last-signal isn't used; unresolved incidents render "open").
func (inc Incident) age() string {
	if inc.ResolvedAt.IsZero() {
		return "-"
	}
	return fmtDur(inc.ResolvedAt.Sub(inc.OpenedAt))
}

// Render formats an incident list as a fixed-width table, one line per
// incident, newest first (the order List returns).
func Render(list []Incident) string {
	if len(list) == 0 {
		return "no incidents recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %-10s %-18s %-12s %-9s %s\n",
		"ID", "SEV", "STATE", "RULE", "OPENED", "DURATION", "TITLE")
	for _, inc := range list {
		fmt.Fprintf(&b, "%-8s %-8s %-10s %-18s %-12s %-9s %s\n",
			inc.ID, inc.SeverityStr, inc.State, inc.Rule,
			inc.OpenedAt.Format(timeFmt), inc.age(), inc.Title)
	}
	return b.String()
}

// RenderIncident formats one incident as operator text: header,
// timeline, evidence summary, impact, resolution.
func RenderIncident(inc Incident) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s/%s] %s\n", inc.ID, inc.SeverityStr, inc.State, inc.Title)
	fmt.Fprintf(&b, "  rule %s (source %s); signal open=%.2f peak=%.2f last=%.2f\n",
		inc.Rule, inc.Source, inc.OpenSignal, inc.PeakSignal, inc.LastSignal)
	fmt.Fprintf(&b, "  timeline:\n")
	for _, tr := range inc.Timeline {
		fmt.Fprintf(&b, "    %s %-10s %s\n", tr.Time.Format(timeFmt), tr.State, tr.Note)
	}
	if ev := inc.Evidence; ev != nil {
		fmt.Fprintf(&b, "  evidence (window %s .. %s):\n",
			ev.From.Format(timeFmt), ev.To.Format(timeFmt))
		fmt.Fprintf(&b, "    sources: %s\n", strings.Join(ev.Sources, ", "))
		if ev.Saturation != nil {
			fmt.Fprintf(&b, "    saturation: space %s, headroom %.2f, queue %d\n",
				ev.Saturation.SpaceStr, ev.Saturation.SpaceHeadroom, ev.Saturation.QueueDepth)
		}
		for _, s := range ev.Series {
			lo, hi := seriesRange(s)
			fmt.Fprintf(&b, "    series %s: %d samples, min %.2f, max %.2f\n",
				s.Metric, len(s.Samples), lo, hi)
		}
		for _, fx := range ev.Sessions {
			fmt.Fprintf(&b, "    flight %s: %d entries\n", fx.Session, len(fx.Entries))
		}
		if len(ev.TraceIDs) > 0 {
			fmt.Fprintf(&b, "    traces: %s\n", strings.Join(ev.TraceIDs, ", "))
		}
	}
	if im := inc.Impact; im != nil {
		fmt.Fprintf(&b, "  impact: %d session(s), %.2fs long, broken %.2fs, degraded %.2fs, deficit %.2fs\n",
			im.SessionsAffected, im.DurationSec, im.BrokenSec, im.DegradedSec, im.TotalDeficitSec)
	}
	if inc.ResolutionCause != "" {
		fmt.Fprintf(&b, "  resolution: %s\n", inc.ResolutionCause)
	}
	return b.String()
}

// seriesRange returns a series excerpt's min and max values.
func seriesRange(s SeriesExcerpt) (lo, hi float64) {
	for i, sm := range s.Samples {
		if i == 0 || sm.V < lo {
			lo = sm.V
		}
		if i == 0 || sm.V > hi {
			hi = sm.V
		}
	}
	return lo, hi
}

// Postmortem renders an incident as a shareable markdown document:
// summary, timeline, evidence, impact, and resolution sections.
func Postmortem(inc Incident) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Postmortem %s — %s\n\n", inc.ID, inc.Title)
	fmt.Fprintf(&b, "| | |\n|---|---|\n")
	fmt.Fprintf(&b, "| Rule | `%s` (source `%s`) |\n", inc.Rule, inc.Source)
	fmt.Fprintf(&b, "| Severity | %s |\n", inc.SeverityStr)
	fmt.Fprintf(&b, "| State | %s |\n", inc.State)
	fmt.Fprintf(&b, "| Opened | %s |\n", inc.OpenedAt.Format(time.RFC3339Nano))
	if !inc.MitigatingAt.IsZero() {
		fmt.Fprintf(&b, "| Mitigating | %s |\n", inc.MitigatingAt.Format(time.RFC3339Nano))
	}
	if !inc.ResolvedAt.IsZero() {
		fmt.Fprintf(&b, "| Resolved | %s (after %s) |\n",
			inc.ResolvedAt.Format(time.RFC3339Nano), fmtDur(inc.ResolvedAt.Sub(inc.OpenedAt)))
	}
	fmt.Fprintf(&b, "| Signal | open %.2f, peak %.2f, last %.2f |\n\n", inc.OpenSignal, inc.PeakSignal, inc.LastSignal)

	fmt.Fprintf(&b, "## Timeline\n\n")
	for _, tr := range inc.Timeline {
		fmt.Fprintf(&b, "- **%s** `%s` — %s\n", tr.Time.Format(timeFmt), tr.State, tr.Note)
	}
	b.WriteString("\n")

	if ev := inc.Evidence; ev != nil {
		fmt.Fprintf(&b, "## Evidence\n\n")
		fmt.Fprintf(&b, "Signal sources correlated at onset: **%s** (window %s → %s).\n\n",
			strings.Join(ev.Sources, ", "), ev.From.Format(timeFmt), ev.To.Format(timeFmt))
		if ev.Saturation != nil {
			fmt.Fprintf(&b, "- Saturation: space **%s**, headroom %.2f, queue depth %d, %d SLO violation(s)\n",
				ev.Saturation.SpaceStr, ev.Saturation.SpaceHeadroom, ev.Saturation.QueueDepth, ev.Saturation.SLOViolations)
			for _, dev := range ev.Saturation.Devices {
				if !dev.Up {
					fmt.Fprintf(&b, "  - device `%s` **down**\n", dev.ID)
				}
			}
		}
		for _, st := range ev.SLO {
			if st.State == "ok" || st.State == "no-data" {
				continue
			}
			fmt.Fprintf(&b, "- SLO `%s` **%s**: actual %.3f vs target %.3f (burn %.2f)\n",
				st.Name, st.State, st.Actual, st.Target, st.BurnRate)
		}
		for _, s := range ev.Series {
			lo, hi := seriesRange(s)
			fmt.Fprintf(&b, "- Series `%s`: %d samples in window, min %.2f, max %.2f\n",
				s.Metric, len(s.Samples), lo, hi)
		}
		if ev.Admission != nil {
			fmt.Fprintf(&b, "- Admission gate: state **%s**, burn %.2f\n", ev.Admission.StateStr, ev.Admission.SLOBurn)
			for _, cc := range ev.Admission.Classes {
				fmt.Fprintf(&b, "  - class `%s`: admitted %d, degraded %d, rejected %d\n",
					cc.Class, cc.Admitted, cc.Degraded, cc.Rejected)
			}
		}
		if len(ev.Sessions) > 0 {
			fmt.Fprintf(&b, "\n### Flight-recorder excerpts\n\n")
			for _, fx := range ev.Sessions {
				fmt.Fprintf(&b, "**%s** (%d entries):\n\n```\n", fx.Session, len(fx.Entries))
				for _, en := range fx.Entries {
					b.WriteString(en.Format())
					b.WriteString("\n")
				}
				b.WriteString("```\n\n")
			}
		}
		if len(ev.TraceIDs) > 0 {
			fmt.Fprintf(&b, "Trace IDs in window: `%s`\n\n", strings.Join(ev.TraceIDs, "`, `"))
		}
	}

	if im := inc.Impact; im != nil {
		fmt.Fprintf(&b, "## Impact\n\n")
		fmt.Fprintf(&b, "- Sessions affected: **%d**\n", im.SessionsAffected)
		fmt.Fprintf(&b, "- Duration: **%.2fs**\n", im.DurationSec)
		fmt.Fprintf(&b, "- Broken time accrued: %.2fs; degraded time accrued: %.2fs\n", im.BrokenSec, im.DegradedSec)
		fmt.Fprintf(&b, "- QoS deficit accrued: **%.2fs** total", im.TotalDeficitSec)
		if len(im.DeficitSec) > 0 {
			axes := make([]string, 0, len(im.DeficitSec))
			for axis := range im.DeficitSec {
				axes = append(axes, axis)
			}
			sort.Strings(axes)
			parts := make([]string, 0, len(axes))
			for _, axis := range axes {
				parts = append(parts, fmt.Sprintf("%s %.2fs", axis, im.DeficitSec[axis]))
			}
			fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
		}
		b.WriteString("\n")
		if len(im.ClassAvailability) > 0 {
			classes := make([]string, 0, len(im.ClassAvailability))
			for cl := range im.ClassAvailability {
				classes = append(classes, cl)
			}
			sort.Strings(classes)
			for _, cl := range classes {
				fmt.Fprintf(&b, "- Availability `%s`: %.3f\n", cl, im.ClassAvailability[cl])
			}
		}
		b.WriteString("\n")
	}

	fmt.Fprintf(&b, "## Resolution\n\n")
	switch {
	case inc.ResolutionCause != "":
		fmt.Fprintf(&b, "%s.\n", strings.TrimSuffix(inc.ResolutionCause, "."))
	default:
		fmt.Fprintf(&b, "Unresolved: the `%s` signal has not cleared yet.\n", inc.Rule)
	}
	if len(inc.MitigatedBy) > 0 {
		fmt.Fprintf(&b, "Mitigated by: %s.\n", strings.Join(inc.MitigatedBy, ", "))
	}
	return b.String()
}
