// Smart space under churn: many applications arriving and departing while
// devices crash and recover, with the event service reporting every
// runtime change and the recovery supervisor re-placing the sessions a
// crash strands. Demonstrates the full dynamic behaviour of the configuration
// model beyond the paper's scripted scenario.
//
// Run with:
//
//	go run ./examples/smartspace
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

const scale = 0.05 // 20x fast-forward

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dom, err := domain.New("atrium", domain.Options{Scale: scale})
	if err != nil {
		return err
	}
	defer dom.Close()

	// A busier space: two desktops, two laptops, a PDA.
	type devSpec struct {
		id    device.ID
		class device.Class
		mem   float64
	}
	devs := []devSpec{
		{"desk-a", device.ClassDesktop, 256},
		{"desk-b", device.ClassDesktop, 256},
		{"lap-a", device.ClassLaptop, 128},
		{"lap-b", device.ClassLaptop, 128},
		{"pda-a", device.ClassPDA, 32},
	}
	for _, d := range devs {
		attrs := map[string]string{"platform": "pc"}
		if d.class == device.ClassPDA {
			attrs["platform"] = "pda"
		}
		if _, err := dom.AddDevice(d.id, d.class, resource.MB(d.mem, 100), attrs); err != nil {
			return err
		}
	}
	for i := range devs {
		for j := i + 1; j < len(devs); j++ {
			link := netsim.Ethernet
			if devs[i].class == device.ClassPDA || devs[j].class == device.ClassPDA {
				link = netsim.WLAN
			}
			if err := dom.Connect(devs[i].id, devs[j].id, link); err != nil {
				return err
			}
		}
		if err := dom.ConnectServer(devs[i].id, netsim.Ethernet); err != nil {
			return err
		}
	}

	// Service catalog: servers, players for both platforms, a transcoder.
	dom.Registry.MustRegister(&registry.Instance{
		Name:          "stream-server",
		Type:          "server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("MP3")), qos.P(qos.DimFrameRate, qos.Scalar(30))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(40, 40),
	})
	dom.Registry.MustRegister(&registry.Instance{
		Name:      "pc-player",
		Type:      "player",
		Attrs:     map[string]string{"platform": "pc"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("MP3")), qos.P(qos.DimFrameRate, qos.Range(10, 50))),
		Resources: resource.MB(12, 15),
	})
	dom.Registry.MustRegister(&registry.Instance{
		Name:      "pda-player",
		Type:      "player",
		Attrs:     map[string]string{"platform": "pda"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV")), qos.P(qos.DimFrameRate, qos.Range(10, 40))),
		Resources: resource.MB(6, 8),
	})
	dom.Registry.MustRegister(&registry.Instance{
		Name:        "mp3towav",
		Type:        composer.TypeTranscoder,
		Attrs:       map[string]string{"from": "MP3", "to": "WAV"},
		Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol("MP3"))),
		Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV"))),
		PassThrough: map[string]bool{qos.DimFrameRate: true},
		Resources:   resource.MB(10, 20),
	})
	for _, d := range devs {
		for _, inst := range []string{"stream-server", "pc-player", "pda-player", "mp3towav"} {
			dom.Repo.MarkInstalled(string(d.id), inst)
		}
	}

	// Self-healing, as qosconfigd runs it: the supervisor re-places the
	// sessions a runtime change breaks.
	sup, err := core.NewSupervisor(dom.Configurator, core.SupervisorOptions{Bus: dom.Bus})
	if err != nil {
		return err
	}
	defer sup.Stop()

	// Watch the event service.
	sub, err := dom.Bus.SubscribeLossless(
		eventbus.TopicSessionStarted, eventbus.TopicSessionStopped,
		eventbus.TopicDeviceLeft, eventbus.TopicDeviceSwitched,
	)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.C() {
			fmt.Printf("  [event] %-16s %v\n", ev.Topic, ev.Payload)
		}
	}()

	app := func() *composer.AbstractGraph {
		ag := composer.NewAbstractGraph()
		ag.MustAddNode(&composer.AbstractNode{ID: "src", Spec: registry.Spec{Type: "server"}})
		ag.MustAddNode(&composer.AbstractNode{ID: "play", Spec: registry.Spec{Type: "player"}, Pin: core.ClientRole})
		ag.MustAddEdge("src", "play", 1)
		return ag
	}

	rng := rand.New(rand.NewSource(7))
	portals := []device.ID{"desk-a", "desk-b", "lap-a", "lap-b", "pda-a"}

	// Launch a handful of sessions on random portals.
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("app-%d", i)
		portal := portals[rng.Intn(len(portals))]
		if _, err := dom.StartApp(core.Request{
			SessionID:    id,
			App:          app(),
			UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 35))),
			ClientDevice: portal,
		}); err != nil {
			fmt.Printf("  app-%d rejected on %s: %v\n", i, portal, err)
			continue
		}
		fmt.Printf("started %s on portal %s\n", id, portal)
	}
	pause(2)

	// A user roams: move app-0 to the PDA if it is running.
	if dom.Configurator.Session("app-0") != nil {
		if active, err := dom.SwitchDevice("app-0", "pda-a"); err == nil {
			fmt.Printf("app-0 roamed to pda-a: %s\n", active.Report.Summary())
		} else {
			fmt.Printf("app-0 roam failed: %v\n", err)
		}
	}
	pause(2)

	// A desktop crashes: the supervisor re-places the sessions it hosted.
	stranded := dom.SessionsOn("desk-b")
	if err := dom.FailDevice("desk-b"); err != nil {
		return err
	}
	if !sup.AwaitIdle(10 * time.Second) {
		return fmt.Errorf("recovery supervisor still busy after the desk-b crash")
	}
	st := sup.Stats()
	fmt.Printf("desk-b crashed; %d session(s) stranded: %v; recovered %d, lost %d\n",
		len(stranded), stranded, st.Recovered, st.Lost)
	pause(2)

	// Report the survivors and their measured rates.
	fmt.Println("surviving sessions:")
	for _, id := range dom.Configurator.SessionIDs() {
		active := dom.Configurator.Session(id)
		fps, _ := active.Runtime.MeasuredOriginRate("play", "src")
		fmt.Printf("  %-6s portal=%-7s server@%-7s %.1f fps\n",
			id, active.ClientDevice, active.Placement["src"], fps)
		if err := dom.StopApp(id); err != nil {
			return err
		}
	}
	sup.Stop()
	dom.Close()
	<-done
	return nil
}

func pause(modeledSeconds float64) {
	time.Sleep(time.Duration(modeledSeconds * float64(time.Second) * scale))
}
