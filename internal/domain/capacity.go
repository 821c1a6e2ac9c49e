// Capacity observatory glue: one sampling pass reads the domain's live
// state (devices, links, classes, admission queue, SLO burn), publishes
// it as labeled gauges, records the selected series into the on-daemon
// time-series rings, and runs the saturation analyzer. The observatory
// itself (internal/capacity) stays free of domain knowledge; this file is
// where the wiring lives.
package domain

import (
	"time"

	"ubiqos/internal/capacity"
	"ubiqos/internal/metrics"
	"ubiqos/internal/resource"
)

// dimNames labels the resource dimensions in the utilization gauges.
var dimNames = [resource.Dims]string{resource.Memory: "mem", resource.CPU: "cpu"}

// utilization returns the committed fraction of one capacity dimension
// (0 when the device declares none of it).
func utilization(committed, cap float64) float64 {
	if cap <= 0 {
		return 0
	}
	u := committed / cap
	if u < 0 {
		return 0
	}
	return u
}

// sampleCapacity is the observatory's sampler: it runs once per tick and
// on demand from the scrape surfaces (rate-limited by the observatory).
func (d *Domain) sampleCapacity(now time.Time) {
	violations := 0
	worstBurn := 0.0
	for _, st := range d.SLO.Publish() {
		if st.State == metrics.StateViolated {
			violations++
		}
		if st.BurnRate > worstBurn {
			worstBurn = st.BurnRate
		}
	}

	in := capacity.Input{
		Now:           now,
		QueueDepth:    d.Configurator.Pending(),
		SLOViolations: violations,
	}

	devicesDown := 0
	headroomG := d.Metrics.LabeledGauge(metrics.DeviceHeadroom, "device")
	upG := d.Metrics.LabeledGauge(metrics.DeviceUp, "device")
	for _, dev := range d.Devices.All() {
		cap, committed := dev.Capacity(), dev.Committed()
		ds := capacity.DeviceStatus{ID: string(dev.ID), Up: dev.Up(), Headroom: 1}
		for i := 0; i < resource.Dims; i++ {
			u := utilization(committed[i], cap[i])
			if free := 1 - u; free < ds.Headroom {
				ds.Headroom = free
			}
			d.Metrics.Gauge(metrics.WithLabel(metrics.WithLabel(
				metrics.DeviceUtilization, "device", ds.ID), "dim", dimNames[i])).Set(u)
		}
		if ds.Headroom < 0 {
			ds.Headroom = 0
		}
		ds.MemUtil = utilization(committed[resource.Memory], cap[resource.Memory])
		ds.CPUUtil = utilization(committed[resource.CPU], cap[resource.CPU])
		headroomG.With(ds.ID).Set(ds.Headroom)
		if ds.Up {
			upG.With(ds.ID).Set(1)
		} else {
			upG.With(ds.ID).Set(0)
			devicesDown++
		}
		d.Capacity.Record(metrics.WithLabel(metrics.DeviceHeadroom, "device", ds.ID), now, ds.Headroom)
		in.Devices = append(in.Devices, ds)
	}

	residualG := d.Metrics.LabeledGauge(metrics.LinkResidual, "link")
	for _, e := range d.Links.Entries() {
		ls := capacity.LinkStatus{
			A:            string(e.A),
			B:            string(e.B),
			CapacityMbps: e.CapacityMbps,
			ResidualMbps: e.CapacityMbps - e.ReservedMbps,
		}
		if ls.ResidualMbps < 0 {
			ls.ResidualMbps = 0
		}
		if e.CapacityMbps > 0 {
			ls.Utilization = e.ReservedMbps / e.CapacityMbps
		}
		link := ls.A + "|" + ls.B
		residualG.With(link).Set(ls.ResidualMbps)
		d.Capacity.Record(metrics.WithLabel(metrics.LinkResidual, "link", link), now, ls.ResidualMbps)
		in.Links = append(in.Links, ls)
	}

	classG := d.Metrics.LabeledGauge(metrics.SessionsByClass, "class")
	counts := d.Configurator.ClassCounts()
	d.repMu.Lock()
	if d.classesSeen == nil {
		d.classesSeen = make(map[string]bool)
	}
	for class := range d.classesSeen {
		if _, ok := counts[class]; !ok {
			// Every session of the class is gone: the gauge must drop to 0
			// rather than freeze at its last value.
			counts[class] = 0
		}
	}
	for class := range counts {
		d.classesSeen[class] = true
	}
	d.repMu.Unlock()
	for class, n := range counts {
		classG.With(class).Set(float64(n))
		cs := capacity.ClassStatus{
			Class:          class,
			Active:         n,
			ArrivalRate:    d.classMeter(metrics.SessionArrivals, class).EWMA(),
			CompletionRate: d.classMeter(metrics.SessionCompletions, class).EWMA(),
		}
		d.Capacity.Record(metrics.WithLabel(metrics.SessionsByClass, "class", class), now, float64(n))
		in.Classes = append(in.Classes, cs)
	}

	rep := d.saturation.Observe(in)

	stateG := d.Metrics.LabeledGauge(metrics.SaturationState, "device")
	for _, ds := range rep.Devices {
		stateG.With(ds.ID).Set(float64(ds.State))
	}
	d.Metrics.Gauge(metrics.SaturationState).Set(float64(rep.Space))
	d.Metrics.Gauge(metrics.SpaceHeadroom).Set(rep.SpaceHeadroom)
	d.Capacity.Record(metrics.SpaceHeadroom, now, rep.SpaceHeadroom)
	d.Capacity.Record(metrics.SaturationState, now, float64(rep.Space))
	d.Metrics.Gauge(metrics.ConfigPending).Set(float64(in.QueueDepth))
	d.Capacity.Record(metrics.ConfigPending, now, float64(in.QueueDepth))
	d.Capacity.Record(metrics.ActiveSessions, now, float64(d.Configurator.Sessions()))

	d.repMu.Lock()
	d.lastReport = rep
	d.repMu.Unlock()

	// Refresh the outcome ledger's per-class gauges (session_deficit_*,
	// class_availability_ratio) on the same cadence, so /metrics scrapes
	// — which force a sampling pass — always see current accounting.
	d.Flight.PublishMetrics()

	// Feed the incident correlation engine last, with repMu released:
	// its evidence hooks may read lastReport and the admission
	// snapshot.
	d.observeIncidents(rep, worstBurn, violations, devicesDown)
}

// SampleCapacityNow forces a sampling pass (rate-limited by the
// observatory) so scrape surfaces serve fresh data between ticks.
func (d *Domain) SampleCapacityNow() { d.Capacity.SampleNow() }

// SaturationReport returns the most recent saturation verdict, sampling
// first so a caller immediately after startup still gets a real report.
func (d *Domain) SaturationReport() capacity.Report {
	d.SampleCapacityNow()
	d.repMu.Lock()
	defer d.repMu.Unlock()
	return d.lastReport
}
