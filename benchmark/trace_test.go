package main

import "testing"

func TestSelfTimeNestedSpans(t *testing.T) {
	// One request: client 0..1000 > servewire 200..900 > ordering 300..700 >
	// shard 320..680 > deliver 400..500.
	spans := []traceSpan{
		{ID: "c1", Name: spanClient, StartNS: 0, EndNS: 1000},
		{ID: "s1", Parent: "c1", Name: spanServeWire, StartNS: 200, EndNS: 900},
		{ID: "o1", Parent: "s1", Name: spanOrder, StartNS: 300, EndNS: 700},
		{ID: "h1", Parent: "o1", Name: spanShard, StartNS: 320, EndNS: 680},
		{ID: "d1", Parent: "h1", Name: spanDeliver, StartNS: 400, EndNS: 500},
	}
	self := fillSelfTimes(spans)
	want := map[string]int64{spanClient: 300, spanServeWire: 300, spanOrder: 40, spanShard: 260, spanDeliver: 100}
	var sum int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 1000 {
		t.Errorf("self times add up to %d, want the client span's 1000", sum)
	}
	if spans[1].SelfNS != 300 {
		t.Errorf("servewire span self = %d, want 300", spans[1].SelfNS)
	}
}

func TestSelfTimeGroupParent(t *testing.T) {
	// Two requests fill a group; the second one's ServeWire call releases
	// it. The release's ordering span hangs off the group, not off either
	// request, so no single span loses it — but the ServeWire layer does.
	spans := []traceSpan{
		{ID: "c1", Name: spanClient, StartNS: 0, EndNS: 100},
		{ID: "s1", Parent: "c1", Name: spanServeWire, StartNS: 10, EndNS: 60},
		{ID: "c2", Name: spanClient, StartNS: 50, EndNS: 500},
		{ID: "s2", Parent: "c2", Name: spanServeWire, StartNS: 100, EndNS: 450},
		{ID: "og1", Parent: "g1", Name: spanOrder, StartNS: 150, EndNS: 400},
		{ID: "hg1", Parent: "og1", Name: spanShard, StartNS: 160, EndNS: 390},
		{ID: "dg1", Parent: "hg1", Name: spanDeliver, StartNS: 200, EndNS: 220},
	}
	self := fillSelfTimes(spans)
	if spans[3].SelfNS != 350 {
		t.Errorf("releasing request's ServeWire span self = %d, want its full 350 (the group is not its child)", spans[3].SelfNS)
	}
	if got, want := self[spanServeWire], int64(50+350-250); got != want {
		t.Errorf("ServeWire layer self = %d, want %d (group release subtracted from the layer)", got, want)
	}
	if got, want := self[spanClient], int64(50+100); got != want {
		t.Errorf("client layer self = %d, want %d", got, want)
	}
	if got, want := self[spanOrder], int64(250-230); got != want {
		t.Errorf("ordering layer self = %d, want %d", got, want)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if want := int64(100 + 450); sum != want {
		t.Errorf("layer self times add up to %d, want the two client spans' %d", sum, want)
	}
}

func TestLayerTimesReconcile(t *testing.T) {
	spans := []traceSpan{
		{ID: "c1", Name: spanClient, StartNS: 0, EndNS: 10_000},
		{ID: "s1", Parent: "c1", Name: spanServeWire, StartNS: 2_000, EndNS: 8_000},
		{ID: "o1", Parent: "s1", Name: spanOrder, StartNS: 3_000, EndNS: 6_000},
		{ID: "c2", Name: spanClient, StartNS: 0, EndNS: 20_000},
		{ID: "s2", Parent: "c2", Name: spanServeWire, StartNS: 4_000, EndNS: 16_000},
		{ID: "o2", Parent: "s2", Name: spanOrder, StartNS: 5_000, EndNS: 10_000},
	}
	l := layerTimes(spans)
	sum := l["netedge.roundtrip_self_us"] + l["middleware.chain_self_us"] + l["ordering.submit_us"]
	if sum != l["client.traced_mean_us"] || sum != 15 {
		t.Errorf("layers add up to %v us, client mean %v us, want 15", sum, l["client.traced_mean_us"])
	}
}
