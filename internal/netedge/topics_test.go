package netedge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/pki"
)

// isUnknownTopic reports whether err is the refusal of a topic the edge does
// not serve: a WireError labelled with the series that counts it, whose text
// says so.
func isUnknownTopic(err error) bool {
	var we *WireError
	return errors.As(err, &we) && we.Label == "wire/unknown_topic" && strings.Contains(we.Msg, "unknown topic")
}

// caller is who may call a topic on the client edge.
type caller uint8

const (
	// callerStranger is anyone who reaches the port: no certificate, no
	// session.
	callerStranger caller = iota
	// callerCertified holds a certificate the CA issued and proves its key
	// by signing the hello.
	callerCertified
	// callerSession holds a live session: its token, and a MAC under its
	// key.
	callerSession
	// callerOwnSession holds a live session on the transport that opened
	// it; from any other transport the call is refused.
	callerOwnSession
)

// topicCallers declares who may call each topic the edge serves. The
// gateway and EnrollmentHandler decide it; this table states the decision
// so that TestEveryTopicDeclaresItsCaller can hold them to it.
var topicCallers = map[string]caller{
	topicEnroll:                  callerStranger,
	middleware.TopicSessionOpen:  callerCertified,
	middleware.TopicSubmit:       callerSession,
	middleware.TopicSessionClose: callerOwnSession,
}

// declaredTopics returns the value of every string constant named Topic… or
// topic… in this package and in middleware, outside tests: each topic the
// code can name, so that a new one the edge serves cannot go unprobed.
func declaredTopics(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, glob := range []string{"*.go", "../middleware/*.go"} {
		matched, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matched...)
	}
	var topics []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(strings.ToLower(id.Name), "topic") || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						topics = append(topics, v)
					}
				}
			}
		}
	}
	return topics
}

// TestEveryTopicDeclaresItsCaller sends every topic the code declares, the
// two operator topics the edge once served, and each row of topicCallers to
// a served edge over a connection that holds no session and no certificate.
// A topic the edge serves without a row fails, and so does a row the edge
// refuses as unknown or that edgeTopics does not list. Each row's answer to
// the stranger is its caller class's: a stranger's row serves it, a
// certified or a session row refuses it with its reason, and an own-session
// row refuses to touch a session another connection opened.
func TestEveryTopicDeclaresItsCaller(t *testing.T) {
	e := newEdgeEnv(t)
	ctx := context.Background()
	ac := e.dialEdge(t)
	alice := bootstrap(t, ac, "alice")
	c := e.dialEdge(t)

	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	enroll, err := json.Marshal(enrollRequest{Identity: "stranger", PublicKey: key.Public().Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	// A hello under a certificate another CA issued: signed, but not
	// certified by this gateway's CA.
	other, err := pki.NewCA("other-ca")
	if err != nil {
		t.Fatal(err)
	}
	forged, err := other.Enroll("alice", key.Public())
	if err != nil {
		t.Fatal(err)
	}
	var hello []byte
	notSent := errors.New("not sent")
	if _, err := new(middleware.Handshaker).Open(ctx, "alice", forged, key, func(_ context.Context, b []byte) ([]byte, error) {
		hello = b
		return nil, notSent
	}); !errors.Is(err, notSent) {
		t.Fatalf("capturing a hello: %v", err)
	}
	// A submission under a token no session holds.
	req := &middleware.Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: strings.Repeat("5e", 32)}
	middleware.MACRequest(req, make([]byte, dcrypto.MACSize))
	submission, err := middleware.EncodeWireRequest(req, "")
	if err != nil {
		t.Fatal(err)
	}
	closeKey, _ := middleware.EncodeSessionClose(alice.grant.Token)

	// What the stranger sends on a row of each caller class, and what it
	// must come to.
	classes := map[caller]struct {
		payload []byte
		check   func(reply []byte, err error) error
	}{
		callerStranger: {enroll, func(reply []byte, err error) error {
			var cert pki.Certificate
			if err != nil {
				return err
			}
			return json.Unmarshal(reply, &cert)
		}},
		callerCertified: {hello, refusedAs("session.open/bad_certificate")},
		callerSession:   {submission, refusedAs("session/no_session")},
		callerOwnSession: {closeKey[:], func(_ []byte, err error) error {
			if err == nil || !strings.Contains(err.Error(), middleware.ErrSessionBound.Error()) {
				return fmt.Errorf("closing alice's session from another connection answered %v, want %v", err, middleware.ErrSessionBound)
			}
			// alice's session still serves on its own connection.
			_, err = ac.SubmitRaw(ctx, alice.submission(t, []byte("after"), nil))
			return err
		}},
	}

	if len(topicCallers) != len(edgeTopics) {
		t.Errorf("topicCallers has %d rows, edgeTopics lists %d topics", len(topicCallers), len(edgeTopics))
	}
	for _, topic := range edgeTopics {
		if _, ok := topicCallers[topic]; !ok {
			t.Errorf("%s: listed in edgeTopics with no row in topicCallers", topic)
		}
	}
	probes := map[string]bool{"revocation.notify": true, "shard.rebalance": true, "no.such.topic": true}
	for _, topic := range declaredTopics(t) {
		probes[topic] = true
	}
	for topic := range topicCallers {
		probes[topic] = true
	}
	for topic := range probes {
		class, declared := topicCallers[topic]
		if !declared {
			body := []byte(`{"channel":"deals","to":1}`)
			if _, err := c.Call(ctx, topic, body); !isUnknownTopic(err) {
				t.Errorf("%s: the edge serves it with no row in topicCallers (answered %v)", topic, err)
			}
			continue
		}
		probe := classes[class]
		reply, err := c.Call(ctx, topic, probe.payload)
		if isUnknownTopic(err) {
			t.Errorf("%s: declared in topicCallers but refused as unknown", topic)
			continue
		}
		if err := probe.check(reply, err); err != nil {
			t.Errorf("%s (caller class %d) from a stranger: %v", topic, class, err)
		}
	}
}

// refusedAs checks that a call was refused with the label given.
func refusedAs(label string) func([]byte, error) error {
	return func(_ []byte, err error) error {
		if we := (*WireError)(nil); !errors.As(err, &we) || we.Label != label {
			return fmt.Errorf("answered %v, want a refusal labelled %s", err, label)
		}
		return nil
	}
}
