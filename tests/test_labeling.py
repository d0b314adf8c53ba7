import base64
import json
import random
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docprune import cli
from docprune.corpus import Document, extract_snippet, read_records, write_jsonl
from docprune.labeling import (
    AMBIGUOUS,
    INSTRUCTIONS,
    NO,
    YES,
    DegenerateLabelerWarning,
    HttpChatTransport,
    IclDemonstration,
    LabelerConfig,
    QualityLabel,
    TransportError,
    build_prompt,
    canonical_version,
    label_documents,
    parse_label,
    parse_prompt,
    yes_fraction,
)
from docprune.mocks import MockQualityTransport, query_snippet

# The canonical rendered prompt for the documented sample snippet. The three
# instruction texts below are frozen copies; the package constants must match
# them byte for byte.
SAMPLE_PROMPT = (
    "[Document]\n"
    "\n"
    "<I am a document.>\n"
    "\n"
    "[Instruction] In the above we provide a document snippet. The start and "
    "end of the snippet may contain only a partial word, as we sliced at the "
    "character level. Is the document snippet educational and engaging for a "
    "college student studying a STEM subject or the humanities? Answer with "
    "\"Yes\" or \"No\" without any additional comments."
)

FROZEN_INSTRUCTIONS = {
    "V1": (
        "In the above we provide a document snippet. The start and end of the "
        "snippet may contain only a partial word, as we sliced at the character "
        "level. Is the document snippet educational and engaging for a college "
        "student studying a STEM subject or the humanities? Answer with \"Yes\" "
        "or \"No\" without any additional comments."
    ),
    "V2": (
        "In the above we provide a document snippet. The start and end of the "
        "snippet may contain only a partial word, as we sliced at the character "
        "level. Does the document look like it would be helpful for a STEM or "
        "Humanities student who is struggling with their course? Answer with "
        "\"Yes\" or \"No\" without any additional comments."
    ),
    "V3": (
        "In the above we provide a document snippet. The start and end of the "
        "snippet may contain only a partial word, as we sliced at the character "
        "level. Does the document look like it would be educational and helpful "
        "for a STEM or Humanities student to help understanding material from "
        "their course? Answer with \"Yes\" or \"No\" without any additional "
        "comments."
    ),
}


def snippets(n, text="some snippet text"):
    return [extract_snippet(Document(f"s{i}", f"{text} {i}")) for i in range(n)]


def mixed_snippets(n):
    """Snippets the mock labels Yes (even i) and No (odd i, no long word), so
    a run over them is not a degenerate labeler's."""
    return [
        extract_snippet(Document(f"s{i}", f"some snippet text {i}" if i % 2 == 0 else f"plain text {i}"))
        for i in range(n)
    ]


class TestPromptRendering:
    def test_v1_matches_canonical_sample_prompt(self):
        snip = extract_snippet(Document("sample", "I am a document."))
        rendered = build_prompt(snip, "V1")
        assert rendered == SAMPLE_PROMPT

    @pytest.mark.parametrize("version", ["V1", "V2", "V3"])
    def test_instruction_texts_frozen(self, version):
        assert INSTRUCTIONS[version] == FROZEN_INSTRUCTIONS[version]

    @pytest.mark.parametrize("version", ["V1", "V2", "V3"])
    def test_snippet_verbatim_exactly_once(self, version):
        text = 'odd {braces} and "quotes" 世界'
        rendered = build_prompt(extract_snippet(Document("", text)), version)
        assert rendered.count(text) == 1
        assert rendered.index("[Document]") < rendered.index(text) < rendered.index("[Instruction]")
        assert rendered.endswith(INSTRUCTIONS[version])

    def test_case_insensitive_version_lookup(self):
        assert canonical_version("v2") == "V2"
        with pytest.raises(ValueError):
            canonical_version("v9")

    def test_five_shot_structure(self):
        demos = [
            IclDemonstration(f"demo text {i}", YES if i % 2 == 0 else NO, "strong")
            for i in range(5)
        ]
        rendered = build_prompt(extract_snippet(Document("", "the query")), "V1", demos)
        blocks = rendered.split("[Document]\n\n<")
        assert blocks[0] == ""
        assert len(blocks) == 7  # leading empty + 5 answered demos + 1 query
        for i, block in enumerate(blocks[1:6]):
            assert block.startswith(f"demo text {i}>")
            assert block.rstrip().endswith(YES if i % 2 == 0 else NO)
        assert blocks[6].startswith("the query>")
        assert blocks[6].endswith(INSTRUCTIONS["V1"])
        # the query block is exactly the zero-shot rendering
        zero_shot = build_prompt(extract_snippet(Document("", "the query")), "V1")
        assert rendered.endswith(zero_shot)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 6])
    def test_demo_count_must_be_zero_or_five(self, count):
        demos = [IclDemonstration("t", YES)] * count
        with pytest.raises(ValueError, match="0 or 5"):
            build_prompt(extract_snippet(Document("", "q")), "V1", demos)

    def test_empty_snippet_rejected(self):
        with pytest.raises(ValueError):
            build_prompt(extract_snippet(Document("", "")), "V1")

    def test_demo_label_validated(self):
        with pytest.raises(ValueError):
            IclDemonstration("t", "Maybe")


# Snippet texts made of the prompt's own framing markers, braces and other text.
FRAMED_TEXT = st.lists(
    st.sampled_from(["[Document]", "[Instruction]", "<", ">", "{", "}", "{snippet}", "\n",
                     " ", "Yes", "No"]) | st.text(max_size=4),
    max_size=12,
).map("".join)


class TestParsePrompt:
    @settings(max_examples=300, deadline=None)
    @given(version=st.sampled_from(["V1", "V2", "V3"]), query=FRAMED_TEXT.filter(bool),
           demo_texts=st.just([]) | st.lists(FRAMED_TEXT, min_size=5, max_size=5))
    def test_round_trips_build_prompt(self, version, query, demo_texts):
        demos = [IclDemonstration(t, YES if i % 2 else NO) for i, t in enumerate(demo_texts)]
        prompt = build_prompt(extract_snippet(Document("", query)), version, demos)
        assert parse_prompt(prompt) == (version, len(demos), query)

    def test_query_holding_the_framing(self):
        text = "before [Document]\n\n< inner >\n\n[Instruction] after"
        prompt = build_prompt(extract_snippet(Document("", text)), "V2")
        assert parse_prompt(prompt) == ("V2", 0, text)
        assert query_snippet(prompt) == text
        # a 0-shot prompt is answered at 0-shot fidelity, not as a 1-shot one
        assert MockQualityTransport({0: 1.0}).complete(prompt) in (YES, NO)

    def test_unknown_instruction_rejected(self):
        with pytest.raises(ValueError, match="instruction"):
            parse_prompt("[Document]\n\n<text>\n\n[Instruction] Is it good?")


class TestParseLabel:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Yes", YES),
            ("  no.", NO),
            ("As an AI model, it depends...", AMBIGUOUS),
            ("YES!", YES),
            ('"No"', NO),
            ("\n\n yes, definitely", YES),
            ("123 yes", YES),
            ("maybe", AMBIGUOUS),
            ("", AMBIGUOUS),
            ("42", AMBIGUOUS),
        ],
    )
    def test_cases(self, raw, expected):
        assert parse_label(raw) == expected

    def test_total_and_deterministic(self):
        rng = random.Random(0)
        pool = "yYnNoe sm!.é"
        for _ in range(500):
            raw = "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
            first = parse_label(raw)
            assert first in (YES, NO, AMBIGUOUS)
            assert parse_label(raw) == first

    @pytest.mark.parametrize("version", ["V1", "V2", "V3"])
    def test_literal_answers_parse_for_all_templates(self, version):
        assert parse_label(YES) == YES
        assert parse_label(NO) == NO


def _label(label, i=0):
    return QualityLabel(f"d{i}", label, "V1", "m", label)


class TestYesFraction:
    def test_arithmetic(self):
        labels = [_label(YES, 0), _label(YES, 1), _label(NO, 2), _label(NO, 3)]
        assert yes_fraction(labels) == 0.5

    def test_degenerate_high_warns(self):
        labels = [_label(YES, i) for i in range(98)] + [_label(NO, 98), _label(NO, 99)]
        with pytest.warns(DegenerateLabelerWarning):
            assert yes_fraction(labels) == 0.98

    def test_all_no_warns(self):
        with pytest.warns(DegenerateLabelerWarning):
            assert yes_fraction([_label(NO, i) for i in range(10)]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            yes_fraction([])


class ScriptedTransport:
    """Returns queued responses per prompt; repeats the last one forever."""

    def __init__(self, responses):
        self.responses = dict(responses)  # snippet-text fragment -> list of replies
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, prompt):
        with self.lock:
            self.calls += 1
            for fragment, replies in self.responses.items():
                if fragment in prompt:
                    return replies.pop(0) if len(replies) > 1 else replies[0]
        return "Yes"


class FailingTransport:
    def __init__(self, fail_fragments=(), delay=0.0, error=TransportError):
        self.fail_fragments = tuple(fail_fragments)
        self.delay = delay  # seconds each call takes
        self.error = error  # the exception type a failing call raises
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, prompt):
        with self.lock:
            self.calls += 1
        time.sleep(self.delay)
        for fragment in self.fail_fragments:
            if fragment in prompt:
                raise self.error("endpoint down")
        if not self.fail_fragments:
            raise self.error("endpoint down")
        return MockQualityTransport().complete(prompt)


class TestLabelDocuments:
    def config(self, **kw):
        kw.setdefault("model_name", "mock")
        return LabelerConfig(**kw)

    def test_mock_run_is_complete_and_deterministic(self):
        snips = mixed_snippets(100)
        run = lambda: label_documents(snips, self.config(), transport=MockQualityTransport())
        labels_a, stats_a = run()
        labels_b, stats_b = run()
        assert stats_a.requested == 100
        assert stats_a.labeled == 100
        assert stats_a.transport_failures == 0
        assert labels_a == labels_b
        assert [l.doc_id for l in labels_a] == [s.doc_id for s in snips]

    def test_labels_carry_provenance(self):
        snips = mixed_snippets(3)
        labels, _ = label_documents(
            snips, self.config(prompt_version="v2"), transport=MockQualityTransport()
        )
        assert {l.prompt_version for l in labels} == {"V2"}
        assert {l.labeler_id for l in labels} == {"mock"}
        assert {l.icl_shots for l in labels} == {0}

    def test_ambiguous_retries_once_then_drops(self):
        snips = snippets(100)
        transport = ScriptedTransport({"snippet": ["maybe"]})
        labels, stats = label_documents(
            snips, self.config(), transport=transport
        )
        assert labels == []
        assert stats.ambiguous_dropped == 100
        assert transport.calls == 200  # one retry per snippet

    def test_ambiguous_retry_can_recover(self):
        snips = mixed_snippets(2)
        transport = ScriptedTransport({"text 0": ["hmm", "Yes"], "text 1": ["No"]})
        labels, stats = label_documents(
            snips, self.config(), transport=transport
        )
        assert [l.label for l in labels] == [YES, NO]
        assert labels[0].label == YES
        assert labels[0].raw_response == "Yes"
        assert stats.ambiguous_dropped == 0

    def test_failures_below_ceiling_drop_and_continue(self):
        snips = mixed_snippets(100)
        transport = FailingTransport(fail_fragments=["text 17"])
        labels, stats = label_documents(
            snips, self.config(), transport=transport
        )
        assert stats.transport_failures == 1
        assert stats.labeled == 99
        assert "s17" not in {l.doc_id for l in labels}

    def test_abort_when_failures_exceed_ceiling(self):
        snips = snippets(40)
        transport = FailingTransport(delay=0.02)
        labels, stats = label_documents(
            snips, self.config(failure_ceiling=0.05, max_concurrent_requests=2),
            transport=transport,
        )
        assert stats.transport_failures == 3  # ceiling 5% of 40 = 2 -> abort at 3
        assert stats.aborted == "3 transport failures exceeded ceiling 5% of 40"
        assert labels == []
        assert transport.calls < 10  # the requests not yet sent were cancelled

    def test_an_error_stops_the_requests_not_yet_sent(self):
        transport = FailingTransport(delay=0.02, error=RuntimeError)
        with pytest.raises(RuntimeError, match="endpoint down"):
            label_documents(
                mixed_snippets(200), self.config(max_concurrent_requests=2), transport=transport
            )
        assert transport.calls < 20

    def test_bounded_concurrency(self):
        class InstrumentedTransport:
            def __init__(self):
                self.in_flight = 0
                self.max_in_flight = 0
                self.lock = threading.Lock()

            def complete(self, prompt):
                with self.lock:
                    self.in_flight += 1
                    self.max_in_flight = max(self.max_in_flight, self.in_flight)
                time.sleep(0.004)
                with self.lock:
                    self.in_flight -= 1
                return MockQualityTransport().complete(prompt)

        transport = InstrumentedTransport()
        label_documents(
            mixed_snippets(30), self.config(max_concurrent_requests=3), transport=transport
        )
        assert 1 <= transport.max_in_flight <= 3

    def test_label_store_roundtrip(self, tmp_path):
        labels, _ = label_documents(
            mixed_snippets(20), self.config(prompt_version="v3"), transport=MockQualityTransport()
        )
        path = tmp_path / "labels.jsonl"
        assert write_jsonl(path, labels) == 20
        assert list(read_records(path, QualityLabel)) == labels


class _Endpoint(BaseHTTPRequestHandler):
    server_version = "test"
    disable_nagle_algorithm = True  # no delayed-ACK stall between header and body
    # injected: list of (status | "ok" | "malformed" | "close" | "content", payload);
    # "content" answers 200 with the payload as the message content
    behaviors = None
    requests_seen = None
    connections = None  # one entry per accepted socket
    delay = 0.0  # seconds each POST takes

    def setup(self):
        super().setup()
        type(self).connections.append(self.client_address)

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append({
            "body": body, "auth": self.headers.get("Authorization"), "path": self.path,
            "proxy_auth": self.headers.get("Proxy-Authorization"),
        })
        time.sleep(self.delay)
        behavior = (
            type(self).behaviors.pop(0) if type(self).behaviors else ("ok", None)
        )
        if behavior[0] in ("ok", "close", "content"):
            content = behavior[1] if behavior[0] == "content" else "Yes"
            payload = {"choices": [{"message": {"content": content}}]}
            data = json.dumps(payload).encode()
            self.send_response(200)
            # "close": drop the connection after answering, without saying so.
            self.close_connection = behavior[0] == "close"
        elif behavior[0] == "malformed":
            data = b"not json"
            self.send_response(200)
        else:
            data = b"{}"
            self.send_response(behavior[0])
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_CONNECT(self):
        type(self).requests_seen.append({"method": "CONNECT", "path": self.path})
        self.send_response(403)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def serve():
    """Starts loopback endpoints: serve(protocol, **handler attributes) ->
    (handler class, chat-completion URL)."""
    servers = []

    def start(protocol="HTTP/1.0", **attrs):
        handler = type("Handler", (_Endpoint,), {
            "behaviors": [], "requests_seen": [], "connections": [],
            "protocol_version": protocol, **attrs,
        })
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        servers.append(server)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        return handler, f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def endpoint(serve):
    return serve()


@pytest.fixture
def no_proxy_environment(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


class TestHttpChatTransport:
    def make_config(self, url, **kw):
        kw.setdefault("backoff_base", 0.01)
        kw.setdefault("max_retries", 2)
        return LabelerConfig(endpoint_url=url, model_name="quality-model", **kw)

    def test_request_shape_and_response(self, endpoint):
        handler, url = endpoint
        transport = HttpChatTransport(self.make_config(url, temperature=0.2))
        assert transport.complete("the prompt") == "Yes"
        body = handler.requests_seen[0]["body"]
        assert body["model"] == "quality-model"
        assert body["messages"] == [{"role": "user", "content": "the prompt"}]
        assert body["temperature"] == 0.2
        assert body["max_tokens"] == 16

    def test_bearer_token_from_environment(self, endpoint, monkeypatch):
        handler, url = endpoint
        monkeypatch.setenv("DOCPRUNE_API_KEY", "sk-secret")
        HttpChatTransport(self.make_config(url)).complete("p")
        assert handler.requests_seen[0]["auth"] == "Bearer sk-secret"

    def test_retries_on_5xx_then_succeeds(self, endpoint):
        handler, url = endpoint
        handler.behaviors.extend([(500, None), (503, None)])
        transport = HttpChatTransport(self.make_config(url))
        assert transport.complete("p") == "Yes"
        assert len(handler.requests_seen) == 3

    def test_gives_up_after_retry_budget(self, endpoint):
        handler, url = endpoint
        handler.behaviors.extend([(500, None)] * 10)
        transport = HttpChatTransport(self.make_config(url, max_retries=2))
        with pytest.raises(TransportError, match="gave up after 3 attempts"):
            transport.complete("p")
        assert len(handler.requests_seen) == 3

    def test_client_error_fails_immediately(self, endpoint):
        handler, url = endpoint
        handler.behaviors.append((404, None))
        with pytest.raises(TransportError, match="HTTP 404"):
            HttpChatTransport(self.make_config(url)).complete("p")
        assert len(handler.requests_seen) == 1

    def test_malformed_success_body_rejected(self, endpoint):
        handler, url = endpoint
        handler.behaviors.append(("malformed", None))
        with pytest.raises(TransportError, match="malformed"):
            HttpChatTransport(self.make_config(url)).complete("p")

    @pytest.mark.parametrize(
        "content", [5, ["Yes"], {"text": "Yes"}, True], ids=["int", "list", "object", "bool"]
    )
    def test_content_that_is_not_a_string_is_malformed(self, endpoint, content):
        handler, url = endpoint
        handler.behaviors.append(("content", content))
        with pytest.raises(TransportError, match="malformed endpoint response"):
            HttpChatTransport(self.make_config(url)).complete("p")
        assert len(handler.requests_seen) == 1

    def test_null_content_is_ambiguous_retried_once_then_dropped(self, endpoint):
        handler, url = endpoint
        handler.behaviors.extend([("content", None)] * 2)
        transport = HttpChatTransport(self.make_config(url))
        labels, stats = label_documents(snippets(1), transport.config, transport=transport)
        assert (labels, stats.ambiguous_dropped, stats.transport_failures) == ([], 1, 0)
        assert len(handler.requests_seen) == 2

    def test_sequential_calls_share_one_connection(self, serve):
        handler, url = serve("HTTP/1.1")
        transport = HttpChatTransport(self.make_config(url))
        assert [transport.complete(f"p{i}") for i in range(20)] == ["Yes"] * 20
        transport.close()
        assert len(handler.requests_seen) == 20
        assert len(handler.connections) == 1

    @pytest.mark.filterwarnings("ignore::docprune.labeling.DegenerateLabelerWarning")
    def test_no_more_connections_than_requests_in_flight(self, serve):
        handler, url = serve("HTTP/1.1", delay=0.01)
        config = self.make_config(url, max_concurrent_requests=3)
        transport = HttpChatTransport(config)
        labels, stats = label_documents(snippets(30), config, transport=transport)
        transport.close()
        assert stats.labeled == 30
        assert 1 <= len(handler.connections) <= 3

    def test_connection_closed_while_idle_is_reopened(self, serve):
        """The resend on a dropped keep-alive connection spends no retry."""
        handler, url = serve("HTTP/1.1")
        handler.behaviors.append(("close", None))
        transport = HttpChatTransport(self.make_config(url, max_retries=0))
        assert transport.complete("first") == "Yes"
        time.sleep(0.05)  # the server closes the socket the transport keeps idle
        assert transport.complete("second") == "Yes"
        transport.close()
        assert [r["body"]["messages"][0]["content"] for r in handler.requests_seen] == [
            "first", "second"]
        assert len(handler.connections) == 2

    def test_fresh_connection_dropped_spends_an_attempt(self, no_proxy_environment):
        """Only a reused connection earns the free resend: a server that
        closes every new connection at once sees one per attempt."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        accepted, stop = [], threading.Event()

        def drop_each_connection():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                accepted.append(conn)
                conn.close()

        thread = threading.Thread(target=drop_each_connection, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1"
        try:
            with pytest.raises(TransportError, match="gave up after 2 attempts: transport"):
                HttpChatTransport(self.make_config(url, max_retries=1)).complete("p")
        finally:
            stop.set()
            thread.join()
            listener.close()
        assert len(accepted) == 2

    def test_http_proxy_from_environment(self, serve, no_proxy_environment):
        handler, url = serve()
        proxy, proxy_url = serve()
        proxy_base = proxy_url.rsplit("/v1", 1)[0]  # credentials in the URL are %-quoted
        no_proxy_environment.setenv("http_proxy", proxy_base.replace("//", "//user:p%40ss@"))
        assert HttpChatTransport(self.make_config(url)).complete("p") == "Yes"
        assert [r["path"] for r in proxy.requests_seen] == [url]  # the absolute URI
        assert proxy.requests_seen[0]["proxy_auth"] == "Basic " + base64.b64encode(
            b"user:p@ss").decode()
        assert not handler.requests_seen
        no_proxy_environment.setenv("NO_PROXY", "127.0.0.1")
        assert HttpChatTransport(self.make_config(url)).complete("p") == "Yes"
        assert len(proxy.requests_seen) == 1
        assert [r["path"] for r in handler.requests_seen] == ["/v1/chat/completions"]

    def test_https_endpoint_tunnels_through_the_proxy(self, serve, no_proxy_environment):
        proxy, proxy_url = serve()
        no_proxy_environment.setenv("https_proxy", proxy_url.rsplit("/v1", 1)[0])
        config = self.make_config("https://127.0.0.1:9/v1/chat/completions", max_retries=0)
        with pytest.raises(TransportError, match="Tunnel connection failed: 403"):
            HttpChatTransport(config).complete("p")
        assert proxy.requests_seen == [{"method": "CONNECT", "path": "127.0.0.1:9"}]

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1/v1", "localhost:8000/v1", "http:///v1"])
    def test_endpoint_url_must_be_http(self, url):
        with pytest.raises(ValueError, match="http"):
            HttpChatTransport(LabelerConfig(endpoint_url=url))

    def test_ftp_endpoint_exits_2_without_output(self, tmp_path, capsys):
        write_jsonl(tmp_path / "snippets.jsonl", snippets(3))
        assert cli.main(["label", "--snippets", str(tmp_path / "snippets.jsonl"),
                         "--endpoint-url", "ftp://127.0.0.1/v1",
                         "--out", str(tmp_path / "label")]) == 2
        assert "ftp://127.0.0.1/v1" in capsys.readouterr().err
        assert not (tmp_path / "label").exists()

    def test_endpoint_url_required(self):
        with pytest.raises(ValueError):
            HttpChatTransport(LabelerConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LabelerConfig(temperature=-1)
        with pytest.raises(ValueError):
            LabelerConfig(max_concurrent_requests=0)


class TestDemonstrationFiles:
    def test_roundtrip(self, tmp_path):
        from docprune.labeling import read_demonstrations, write_demonstrations

        demos = [IclDemonstration(f"demo {i}", YES if i % 2 else NO, "strong") for i in range(5)]
        path = tmp_path / "demos.jsonl"
        assert write_demonstrations(demos, path) == 5
        assert read_demonstrations(path) == demos

    @pytest.mark.parametrize("count", [0, 3, 6])
    def test_a_file_without_5_demonstrations_is_rejected(self, tmp_path, count):
        from docprune.labeling import read_demonstrations, write_demonstrations

        path = tmp_path / "demos.jsonl"
        write_demonstrations([IclDemonstration("a text", YES, "strong")] * count, path)
        with pytest.raises(ValueError, match=f"holds {count} demonstrations; exactly 5"):
            read_demonstrations(path)


class TestMockLexicalFallback:
    def test_unmarked_text_uses_lexical_rule(self):
        from docprune.mocks import mock_label

        rich = extract_snippet(Document("", "theoretical frameworks underpinning quantitative analysis"))
        poor = extract_snippet(Document("", "it is a the and so on yes ok"))
        assert mock_label(rich) == YES
        assert mock_label(poor) == NO

    def test_mock_label_deterministic(self):
        from docprune.mocks import mock_label

        snip = extract_snippet(Document("", "hqmark1 filler words here"))
        assert mock_label(snip) == mock_label(snip) == YES
        assert mock_label(extract_snippet(Document("", "lqmark2 filler"))) == NO


class TestMockDials:
    """MockQualityTransport keeps the verdict at the fidelity of the prompt's
    shot count, then flips it at flip_rate for V2 and V3."""

    def answers(self, transport, version):
        from docprune.mocks import mock_label

        snips = mixed_snippets(40)
        truth = [mock_label(s) for s in snips]
        return [transport.complete(build_prompt(s, version)) for s in snips], truth

    @pytest.mark.parametrize("version", ["V1", "V2", "V3"])
    def test_full_fidelity_then_flip_changes_only_v2_and_v3(self, version):
        answers, truth = self.answers(MockQualityTransport({0: 1.0}, flip_rate=1.0), version)
        flipped = [NO if t == YES else YES for t in truth]
        assert answers == (truth if version == "V1" else flipped)

    @pytest.mark.parametrize("version", ["V1", "V2", "V3"])
    def test_zero_fidelity_alone_flips_every_answer(self, version):
        answers, truth = self.answers(MockQualityTransport({0: 0.0}), version)
        assert answers == [NO if t == YES else YES for t in truth]

    @pytest.mark.parametrize("version", ["V1", "V2", "V3"])
    def test_zero_fidelity_and_flip_undo_each_other_past_v1(self, version):
        answers, truth = self.answers(MockQualityTransport({0: 0.0}, flip_rate=1.0), version)
        flipped = [NO if t == YES else YES for t in truth]
        assert answers == (flipped if version == "V1" else truth)

    def test_shot_count_without_a_fidelity_is_rejected(self):
        demos = [IclDemonstration(f"demo {i}", YES, "strong") for i in range(5)]
        prompt = build_prompt(snippets(1)[0], "V1", demos)
        with pytest.raises(ValueError, match="no fidelity configured for 5-shot prompts"):
            MockQualityTransport({0: 1.0}).complete(prompt)

    def test_dials_off_draw_no_hash(self, monkeypatch):
        import docprune.mocks

        monkeypatch.setattr(docprune.mocks, "hash01", lambda key: pytest.fail(key))
        answers, truth = self.answers(MockQualityTransport(), "V2")
        assert answers == truth
