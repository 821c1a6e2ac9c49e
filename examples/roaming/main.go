// Roaming: the user carries a session between two smart spaces — the
// paper's "user moves to a new location" case. Both spaces are JSON space
// documents (office.json, home.json); the session is suspended in the
// office, its checkpoint crosses a WAN link, and the home domain composes
// a fresh service graph from its own (different!) service catalog,
// resuming playback from the interruption point.
//
// Run with:
//
//	go run ./examples/roaming
package main

import (
	_ "embed"
	"fmt"
	"log"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/domain"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/spec"
)

const scale = 0.05 // 20x fast-forward

// The home catalog differs from the office's: a different server
// implementation and player — the configuration model re-composes from
// whatever the new environment offers.
var (
	//go:embed office.json
	officeSpace []byte
	//go:embed home.json
	homeSpace []byte
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	office, err := spec.LoadSpace(officeSpace, domain.Options{Scale: scale})
	if err != nil {
		return err
	}
	defer office.Close()
	home, err := spec.LoadSpace(homeSpace, domain.Options{Scale: scale})
	if err != nil {
		return err
	}
	defer home.Close()

	const name = "commute-music"
	app := composer.NewAbstractGraph()
	app.MustAddNode(&composer.AbstractNode{ID: "src", Spec: registry.Spec{Type: "audio-server"}})
	app.MustAddNode(&composer.AbstractNode{ID: "play", Spec: registry.Spec{Type: "audio-player"}, Pin: composer.ClientRole})
	app.MustAddEdge("src", "play", 1.5)
	userQoS := qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))

	// Morning: music starts at the office.
	active, err := office.StartApp(core.Request{
		SessionID:    name,
		App:          app,
		UserQoS:      userQoS,
		ClientDevice: "work-desktop",
	})
	if err != nil {
		return err
	}
	listen(2)
	fmt.Printf("at the office: server=%s (%s), position %d\n",
		active.Placement["src"], active.Graph.Node("src").Instance, active.Runtime.Position())

	// Evening: the user goes home. The checkpoint crosses a 2 Mbps WAN.
	wan := netsim.Link{BandwidthMbps: 2, LatencyMs: 25}
	moved, err := office.Migrate(name, home, "living-room-pc", wan)
	if err != nil {
		return err
	}
	listen(2)
	fmt.Printf("at home:      server=%s (%s), position %d\n",
		moved.Placement["src"], moved.Graph.Node("src").Instance, moved.Runtime.Position())
	fmt.Printf("migration handoff cost (incl. WAN transfer): %v\n",
		moved.Timing.InitOrHandoff.Round(time.Millisecond))

	fps, _ := moved.Runtime.MeasuredOriginRate("play", "src")
	fmt.Printf("measured QoS after roaming: %.1f fps (user window 30-44)\n", fps)
	return home.StopApp(name)
}

func listen(modeledSeconds float64) {
	time.Sleep(time.Duration(modeledSeconds * float64(time.Second) * scale))
}
