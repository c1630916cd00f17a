package middleware

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dltprivacy/internal/telemetry"
)

// TestEveryErrorHasARejectReason walks the package's non-test sources for
// exported Err* variables and fails on any the reject vocabulary cannot name:
// a refusal that wraps it would count under its site's catch-all. It also
// holds the vocabulary's shape: every site ends in its catch-all, and no two
// rows name one series.
func TestEveryErrorHasARejectReason(t *testing.T) {
	// The value behind every name the walk finds; a new exported error goes
	// here and into rejectReasons.
	values := map[string]error{
		"ErrAggregateRelease": ErrAggregateRelease, "ErrAttestationRejected": ErrAttestationRejected,
		"ErrAttestationRequired": ErrAttestationRequired, "ErrBadAggregand": ErrBadAggregand,
		"ErrBadConfig": ErrBadConfig, "ErrBadFrame": ErrBadFrame, "ErrBadMAC": ErrBadMAC,
		"ErrBadSignature": ErrBadSignature, "ErrBatchRelease": ErrBatchRelease,
		"ErrCredentialRejected": ErrCredentialRejected,
		"ErrCredentialRequired": ErrCredentialRequired, "ErrIdentityMismatch": ErrIdentityMismatch,
		"ErrNoSession": ErrNoSession, "ErrNotAuthenticated": ErrNotAuthenticated,
		"ErrNotRecipient": ErrNotRecipient, "ErrProofInvalid": ErrProofInvalid,
		"ErrProofRequired": ErrProofRequired,
		"ErrReplayedHello": ErrReplayedHello, "ErrSessionBound": ErrSessionBound,
		"ErrSessionExpired": ErrSessionExpired, "ErrSessionRevoked": ErrSessionRevoked,
		"ErrStaleHello": ErrStaleHello, "ErrUnknownChannel": ErrUnknownChannel,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if !id.IsExported() || !strings.HasPrefix(id.Name, "Err") {
						continue
					}
					found++
					err, ok := values[id.Name]
					if !ok {
						t.Errorf("%s (%s): exported error with no reject reason; give it a row in rejectReasons and list it here", id.Name, name)
						continue
					}
					named := false
					for _, r := range rejectReasons {
						named = named || r.err == err
					}
					if !named {
						t.Errorf("%s: no row of rejectReasons names it", id.Name)
					}
				}
			}
		}
	}
	if found != len(values) {
		t.Errorf("found %d exported errors, the table lists %d", found, len(values))
	}

	series := make(map[string]bool)
	for i, r := range rejectReasons {
		id := r.stage + "/" + r.reason
		if series[id] {
			t.Errorf("two rows name the series %s", id)
		}
		series[id] = true
		if RejectError(id) != r.err {
			t.Errorf("row %s: RejectError = %v, want %v", id, RejectError(id), r.err)
		}
		last := i == len(rejectReasons)-1 || rejectReasons[i+1].site != r.site
		if last != (r.err == nil) {
			t.Errorf("row %s: a site's catch-all (nil err) must be its last row, and only that", id)
		}
	}
}

// TestRejectsCarryTheirReason sends one refusal of each kind the wire can
// produce through ServeWire and reads each back from /metrics under its stage
// and reason, which RejectLabel reads off the error; /statusz keeps the
// unlabelled total.
func TestRejectsCarryTheirReason(t *testing.T) {
	gw, _, ps, grants := fastpathGateway(t, "alice", "bob")
	reg := telemetry.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	alice := grants["alice"]
	session := func(principal, token string, key []byte) *Request {
		req := &Request{Channel: "deals", Principal: principal, Payload: []byte("trade"), SessionToken: token}
		MACRequest(req, key)
		return req
	}
	forgedMAC := session("alice", alice.Token, alice.MacKey)
	forgedMAC.Payload = []byte("another trade")
	encode := func(req *Request) []byte {
		b, err := EncodeWireRequest(req, "")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	stale := mustHelloAt(t, ps["alice"], time.Now().Add(-time.Hour))
	staleHello, err := encodeHelloFrame(&stale)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		topic   string
		payload []byte
		series  string
	}{
		{TopicSubmit, []byte("garbage"), `stage="decode",reason="bad_frame"`},
		{TopicSubmit, encode(forgedMAC), `stage="session",reason="bad_mac"`},
		{TopicSubmit, encode(session("bob", alice.Token, alice.MacKey)), `stage="session",reason="principal_mismatch"`},
		{TopicSubmit, encode(session("alice", strings.Repeat("0", 64), alice.MacKey)), `stage="session",reason="no_session"`},
		{TopicSessionOpen, []byte("garbage"), `stage="session.open",reason="bad_frame"`},
		{TopicSessionOpen, staleHello, `stage="session.open",reason="stale_hello"`},
	} {
		_, err := gw.ServeWire(context.Background(), tc.topic, tc.payload, "")
		if err == nil {
			t.Fatalf("%s: accepted", tc.series)
		}
		if stage, reason, _ := strings.Cut(RejectLabel(err), "/"); `stage="`+stage+`",reason="`+reason+`"` != tc.series {
			t.Errorf("%s: RejectLabel = %q", tc.series, RejectLabel(err))
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if want := "confmw_gateway_rejected_total{" + tc.series + "} 1\n"; !strings.Contains(sb.String(), want) {
			t.Errorf("refusal not counted as %q; the family reads:\n%s", want, rejectedFamily(sb.String()))
		}
	}
	if got := gw.Stats().Rejected; got != 6 {
		t.Errorf("Stats().Rejected = %d, want the 6 refusals", got)
	}
	// What the gateway did not count carries no label.
	if _, err := gw.ServeWire(context.Background(), "no.such.topic", nil, ""); err == nil {
		t.Fatal("unknown topic served")
	} else if label := RejectLabel(err); label != "" {
		t.Errorf("an uncounted error is labelled %q", label)
	}
}

// rejectedFamily returns the non-zero confmw_gateway_rejected_total lines.
func rejectedFamily(exposition string) string {
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "confmw_gateway_rejected_total{") && !strings.HasSuffix(line, " 0") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
