package repro_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/workloads"
)

// modelDigests pins a SHA-256 over Result.Stats for every (benchmark,
// mechanism) cell of TestModelOutputDigest. The golden equivalence tests
// compare execution strategies with each other, so a change that moves every
// strategy the same way passes them; this table is what catches it. A change
// that is meant to alter model output must update these digests and say so.
var modelDigests = map[string]string{
	"backprop/baseline":       "92d3f840af81ac362e929747975909cdb00bfc0a682a536971864306d15db8ff",
	"backprop/ideal":          "7dd332d81d4925f010c178df740219d55086bd7d660dae8a145de7fe34422ce2",
	"backprop/isolated-snake": "14b910db06d929f8475a93f672546f26d14c421984975d6b14ac813880905d38",
	"backprop/mta+decoupled":  "b046facbf7bf208223e9f26c9d76a89eb0eb844d59f1fdc4ef637b9b58e50c09",
	"backprop/snake":          "761a6867018a27674e15c579f8dd5ac1ae333a00aecdc407c6d9f3a928625b9b",
	"cp/baseline":             "288fedb473738f97224a3db2cc8d6bac29ef6b07e0930e7aa313ba9b48bc47ed",
	"cp/ideal":                "f36cc7c94aed2e4e2f6cfce930d5d60830f8002034929e4c494e401f9ee2db30",
	"cp/isolated-snake":       "c46593b5f2f43b4f55a53103b32c5ce5ba8b97836b80dd3d720132a538991c8b",
	"cp/mta+decoupled":        "1f431835facdc6f5ddc2834a780bbc31a81817e177094a04d5d3ebca5a469c9f",
	"cp/snake":                "244d4226c51605ff4071052718c3917840a47b4e2608cd5b774e272ba959a896",
	"histo/baseline":          "7b48b3d0a5a3898c01cf885b7014006de91cdb47908f44bcda2b127c415b17be",
	"histo/ideal":             "780e4dfcc348436519d2e67bdd45fc5b02a9f8502aa74dc793650a4edf8dc236",
	"histo/isolated-snake":    "2992400119529ca76c0ee454675683745b57b905d6f13fa10edc4aaa6bc0c73c",
	"histo/mta+decoupled":     "8daa2842c939253bec9f217793e18b841af1aa39633ebdc647f11d743a3efd4c",
	"histo/snake":             "16273be6718bd2e2c8a680f5e2fb1dc64a1f9dc955172f636ff8b6bec2754fa5",
	"hotspot/baseline":        "2a0fcff9413f6c90948dca009e1272f657e8d8f14c101c718a15d14bd3e4b641",
	"hotspot/ideal":           "e99214416ad3f5468f70862d0e17cccc3fd8406d711ada6163bed28d9f578512",
	"hotspot/isolated-snake":  "56cdd6df4e96d5312355cea1316af3ecb9e2efcee45993b3748bca80b328b8e8",
	"hotspot/mta+decoupled":   "eee25692644fbff14ae43eec81f25c58719d0c98af7d3c7e52be3b6547d634af",
	"hotspot/snake":           "e6cdf7a6d4baa03eee31393ca18a975e43dd9ed8e289a57ba1c242426620bba1",
	"lib/baseline":            "51441972a44dbf470f5c4f7252cb98b970f17a0467a6a6855b8cf8aed7a27e90",
	"lib/ideal":               "25bffb180c2b00818329528c2fc66b2c2428b6a2cc235ad363284bc31d849798",
	"lib/isolated-snake":      "cc391d0adf1b3cab5f09ee4674b4e2b113a6ee9bb4e8987129e3907d05ae1a27",
	"lib/mta+decoupled":       "fc22292614f7d6ec36ec7a6af9f3c0fbe4b83f6e44653b967de94dcabe990a3b",
	"lib/snake":               "444184096424a03baea24ec1b23738e63bdf318d8f02beee7c917a5afa32d3c0",
	"lps/baseline":            "e32eb2cd6645ae66e0b29c3695e78e0c5ada7171a63a1e413b175feceaffdd8b",
	"lps/ideal":               "c73ef68e6f06bebafda73daa503b05eacdd86a8bfca8c2fc2d30acd4d06efee3",
	"lps/isolated-snake":      "5ea68557eddb15d91407f6c5edc2714feb3ab41c03d5b5374f3e51105ba10750",
	"lps/mta+decoupled":       "7f69f41f992d43980f0b8c3fcc3d1340e50379a406dbf7039e3a2b30222de559",
	"lps/snake":               "be9f4259b1a2628cacf7b9d2ff5be0f6afd96a22d8a5baa0e952bb1cc28f862e",
	"lps/snake/lrr":           "93568f61402ec7ab4f00621b1b8a0cb9fc15ba62ca52a3ea8dfdf58510a4d651",
	"lps/snake/oldest":        "12fa287639b52df1deb266b46b4f295acae56e144473aa104a542c827fa9fa41",
	"lud/baseline":            "0a30b1c678a16e24c77cca7b4006b0dd393519db7d25c540edd5603049bbc329",
	"lud/ideal":               "c043d77853232d6f94e153ebb79ca82e4afb0ee821fe65f9fbaf274d99ec36e8",
	"lud/isolated-snake":      "a136927e54ad85a37c76018de3073aacf36aca44f4839cd7cc8b0dc18f0240d4",
	"lud/mta+decoupled":       "84ce45b5cb1e85891c9106c95536e542e17aea139394ed7ca044dfe556bcbb88",
	"lud/snake":               "4b7d4c20c168eb9f5d639d4e930da229dfb2d0ddccd8a6028f343587f2e9e6ab",
	"mrq/baseline":            "c2a340cd1359c5b4390262e436225ab7882387409653d961a873ae437f5a54d2",
	"mrq/ideal":               "bddc6074e2ef2555c08eab55d0d46df36af205d1c49ec2e949e40fd351f70eb0",
	"mrq/isolated-snake":      "903bd1d08711a6994ed470ba23599e453f32d284a93633a4b30f6a78fa55d08c",
	"mrq/mta+decoupled":       "20e50b75160face1c64a8f53440450a7caa1b1bf3e02b6ad0bfa530108491c0f",
	"mrq/snake":               "e45fc47738bad6cf2df1956d6eaece6f1af770bdb87a39e4bbaae5047741c0c7",
	"mum/baseline":            "3008103ed2c126382be94cc99babd1a5f14451f49db2b988e45680902c939686",
	"mum/ideal":               "0794df9ca3e3c2da9df736ca4290c83e6d6cacf74da561539ff4dc9c1c4b93ce",
	"mum/isolated-snake":      "3008103ed2c126382be94cc99babd1a5f14451f49db2b988e45680902c939686",
	"mum/mta+decoupled":       "cdeeb26e83501e15b515919bae2e108778b1834085ea62114193f4a9b3216e3a",
	"mum/snake":               "3008103ed2c126382be94cc99babd1a5f14451f49db2b988e45680902c939686",
	"nw/baseline":             "c6599bc888e1ee1d1fa2f6bbb3ac98728b36a71e45811a637f4b517c1fe9fe30",
	"nw/ideal":                "e499c55f9d961be44cb13d833c5ef2664b672d407a6ba442ab623a67fe58e7ec",
	"nw/isolated-snake":       "39c91712a083875c838ee441ac4d960bbe89ce4dc9f01939f8fd915b078d6449",
	"nw/mta+decoupled":        "f51a32617497d0f7c4daec407806de17d804191528d22de374498bd90c8273ee",
	"nw/snake":                "b9d74880821eff8951ded3430074e7ed823f95601b82708ba2dd9bd29b3e338f",
	"srad/baseline":           "c274c6fb0694991d16d882ab47b8bb0cbfaa9bbcac89b9e242d5ca864eae725a",
	"srad/ideal":              "1eed1151e21f15e42711c9b024ed18d19e6af84070c6e5fe1a67b71fbad2dc6e",
	"srad/isolated-snake":     "07323dcc5f8a21bc17a2e5b596629cf5c63e99b5c15336217919fc050b39d5fc",
	"srad/mta+decoupled":      "9df7813f59fcfee55f0807559174f7f403c9ea7149bed8854d254250b16acc31",
	"srad/snake":              "c34ec9594f807f974f08a836c63e4c4fffbbf5ab64360554d5058911c06612cf",
}

// TestModelOutputDigest runs the 11 benchmarks under the baseline, Snake,
// isolated Snake, Ideal and decoupled MTA mechanisms, plus one benchmark
// under each non-default warp scheduler, at a scale where the 256-way L1
// sets fill and Snake's §3.2 bulk eviction runs, and compares a digest of
// each run's aggregate statistics with the pinned value.
func TestModelOutputDigest(t *testing.T) {
	cfg := config.Scaled(2, 16)
	sc := workloads.Scale{CTAs: 16, WarpsPerCTA: 4, Iters: 4}
	type cell struct {
		bench, mech string
		sched       config.SchedulerPolicy
	}
	var cells []cell
	for _, bench := range workloads.Names() {
		for _, mech := range []string{"baseline", "snake", "isolated-snake", "ideal", "mta+decoupled"} {
			cells = append(cells, cell{bench, mech, cfg.Scheduler})
		}
	}
	cells = append(cells, cell{"lps", "snake", config.SchedLRR}, cell{"lps", "snake", config.SchedOldest})
	for _, c := range cells {
		name := c.bench + "/" + c.mech
		if c.sched != cfg.Scheduler {
			name += "/" + string(c.sched)
		}
		c := c
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, err := workloads.Build(c.bench, sc)
			if err != nil {
				t.Fatal(err)
			}
			factory, err := harness.Mechanism(c.mech)
			if err != nil {
				t.Fatal(err)
			}
			gpu := cfg
			gpu.Scheduler = c.sched
			res, err := sim.Run(k, sim.Options{Config: gpu, NewPrefetcher: factory})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := binary.Write(h, binary.LittleEndian, &res.Stats); err != nil {
				t.Fatal(err)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), modelDigests[name]; got != want {
				t.Errorf("Result.Stats digest changed:\n got: %q\nwant: %q\nstats: %+v", got, want, res.Stats)
			}
		})
	}
}
