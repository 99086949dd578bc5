"""Hypothesis against the HTTP surface of ``repro serve`` and the router.

Generated bodies go to ``/v1/estimate``, ``/v1/estimate_batch`` and
``/v1/feedback`` of an in-process :class:`EstimationServer` and of a
:class:`RouterServer` over two :class:`LocalWorker` handles: truncated
or malformed JSON, JSON that is not an object, fields of the wrong type
(numbers, booleans, null, nested lists), non-UTF-8 bytes, and SQL from
the parser differential's ``statements`` and ``broken`` strategies over
the forest table, next to served statements re-spelled in keyword case,
whitespace and literals.

Every answer is a 4xx carrying a JSON ``error``, or a 200 whose
estimates equal ``estimate_batch`` on ``parse_query`` of the same SQL,
bitwise; a body the reference can estimate is a 200, one it rejects a
4xx.  Never a 5xx, and every example of a target goes over one
keep-alive connection, which must stay open.  ``/v1/estimate`` rides the
micro-batcher, so good and bad statements also meet in its batches.

Request framing gets its own property: raw header blocks on a socket,
with ``Content-Length`` values spelled with signs, underscores,
whitespace, leading zeros, empty, huge, or short of or past the body,
sometimes repeated, sometimes next to a ``Transfer-Encoding``.  Unless
one well-formed length frames the body, the answer is a single 400 or
413 with ``Connection: close`` and nothing is answered for the bytes
that follow; a well-formed length gets the answer the request it
frames gets.
"""

from __future__ import annotations

import http.client
import json
import math
import socket

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.fleet import RouterServer
from repro.metrics import qerror
from repro.serve import EstimationServer, EstimationService
from repro.serve.http import MAX_BODY_BYTES
from repro.sql.parser import parse_query
from tests.fleet.conftest import fleet_estimator, local_fleet  # noqa: F401
from tests.sql.test_parser_differential import (
    GAP,
    NUMBERS,
    broken,
    cased,
    statements,
)

PATHS = ["/v1/estimate", "/v1/estimate_batch", "/v1/feedback"]

#: The served table, a second name for two-table statements, and a few
#: of the table's columns (binary indicators and wide numeric ones).
TABLES = ("forest", "cover")
COLUMNS = ("A1", "A2", "A5", "A10", "A11", "A45", "A54")

#: Words :func:`respelled` re-cases.
KEYWORDS = {"SELECT", "COUNT(*)", "FROM", "WHERE", "AND", "OR"}

#: Statements the strategies would seldom hit: overflowing literals,
#: exponents, a lone surrogate, IN, an alias, strings, an empty text.
ODD_SQL = [
    "SELECT count(*) FROM forest WHERE A1 > " + "9" * 400,
    "SELECT count(*) FROM forest WHERE A1 > -" + "9" * 400 + ".5",
    "SELECT count(*) FROM forest WHERE A1 > 1e999",
    "SELECT count(*) FROM forest WHERE A1 > 2500\ud800",
    "SELECT count(*) FROM forest WHERE A1 IN (2500, 2600)",
    "SELECT count(*) FROM forest f WHERE f.A1 > 2500",
    "SELECT count(*) FROM forest WHERE A1 = 'x'",
    "SELECT count(*) FROM forest WHERE A1 > ?",
    "SELECT count(*) FROM forest",
    "",
]

#: Bytes spliced into a body to break it.
JUNK = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"}",
                        b"{", b",", b'"', b"]", b"NaN", b"\\u12", b"\\"])

#: JSON values of every type, nested.
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=2)),
    max_leaves=6)

#: Feedback counts: mostly valid, else negative, overflowing,
#: non-finite, or junk.
COUNTS = st.one_of(
    st.integers(0, 10**6), st.floats(0, 1e9),
    st.one_of(st.integers(-5, -1), st.just(10**400),
              st.sampled_from([math.nan, math.inf, -math.inf]), VALUES))


@st.composite
def respelled(draw, sqls):
    """A served statement in another spelling: keywords in another case,
    other whitespace, and some literals spelled or valued differently."""
    words = []
    for word in draw(st.sampled_from(sqls)).split(" "):
        if word.upper() in KEYWORDS:
            word = draw(cased(word))
        elif word.lstrip("-").isdigit() and draw(st.integers(0, 3)) == 0:
            word = draw(st.one_of(st.just(word + ".0"),
                                  st.just(word + ".000"), NUMBERS))
        words.append(word)
    return "".join(word + draw(GAP) for word in words).rstrip()


@st.composite
def requests(draw, sqls):
    """``(path, body)``: a payload for one endpoint, mostly posted to
    it, as JSON or cut short, spliced with junk, or replaced by
    arbitrary bytes."""
    sql = st.one_of(respelled(sqls), respelled(sqls),
                    statements(TABLES, COLUMNS), broken(TABLES, COLUMNS),
                    st.sampled_from(ODD_SQL))
    path, payload = draw(st.one_of(
        st.tuples(st.just(PATHS[0]), st.fixed_dictionaries({"sql": sql})),
        st.tuples(st.just(PATHS[1]), st.fixed_dictionaries(
            {"sql": st.lists(sql, max_size=4)})),
        st.tuples(st.just(PATHS[2]), st.fixed_dictionaries(
            {"sql": sql, "true_cardinality": COUNTS},
            optional={"estimate": COUNTS})),
        st.tuples(st.sampled_from(PATHS), st.one_of(
            st.fixed_dictionaries({"sql": VALUES},
                                  optional={"true_cardinality": COUNTS}),
            VALUES))))
    if draw(st.integers(0, 3)) == 0:
        path = draw(st.sampled_from(PATHS))
    body = json.dumps(payload, ensure_ascii=draw(st.booleans())).encode(
        "utf-8", "surrogatepass")
    kind = draw(st.sampled_from(["json", "json", "json", "truncate",
                                 "splice", "bytes"]))
    if kind == "truncate":
        body = body[:draw(st.integers(0, max(0, len(body) - 1)))]
    elif kind == "splice":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(JUNK) + body[at:]
    elif kind == "bytes":
        body = draw(st.binary(max_size=48))
    return path, body


def valid_count(value) -> bool:
    """The feedback validator's contract: a JSON number, not a boolean,
    that converts to a finite float >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value)) and float(value) >= 0
    except OverflowError:
        return False


class Surface:
    """One keep-alive connection to a server, and the reference that
    judges its answers."""

    def __init__(self, server, estimator) -> None:
        self.estimator = estimator
        self.references: dict[str, float | None] = {}
        self.connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30)
        self.connection.connect()
        self.socket = self.connection.sock

    def close(self) -> None:
        self.connection.close()

    def reference(self, sql: str) -> float | None:
        """``estimate_batch`` on ``parse_query(sql)``, or None when
        either rejects the statement."""
        if sql not in self.references:
            try:
                value = float(self.estimator.estimate_batch(
                    [parse_query(sql)])[0])
            except (ValueError, KeyError):
                value = None
            self.references[sql] = value
        return self.references[sql]

    def expected(self, path: str, body: bytes):
        """The reference's answer to ``body`` on ``path``: an estimate,
        a list of them or a feedback pair for a 200; None for a 4xx."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        sql = payload.get("sql")
        if path == "/v1/estimate_batch":
            if (not isinstance(sql, list)
                    or not all(isinstance(s, str) for s in sql)):
                return None
            values = [self.reference(s) for s in sql]
            return None if None in values else values
        if not isinstance(sql, str):
            return None
        value = self.reference(sql)
        if path == "/v1/estimate" or value is None:
            return value
        served = payload.get("estimate")
        if ("true_cardinality" not in payload
                or not valid_count(payload["true_cardinality"])
                or (served is not None and not valid_count(served))):
            return None
        served = value if served is None else float(served)
        truth = float(payload["true_cardinality"])
        return qerror(max(truth, 1.0), max(served, 1.0)), served

    def post(self, path: str, body: bytes) -> tuple[int, dict]:
        self.connection.request("POST", path, body=body, headers={
            "Content-Type": "application/json"})
        response = self.connection.getresponse()
        answer = json.loads(response.read())
        assert self.connection.sock is self.socket, (
            "the server closed the connection")
        return response.status, answer

    def check(self, path: str, body: bytes) -> None:
        expected = self.expected(path, body)
        status, answer = self.post(path, body)
        if expected is None:
            assert 400 <= status < 500, (status, answer, body)
            assert isinstance(answer.get("error"), str), answer
        elif path == "/v1/estimate":
            assert (status, answer.get("estimate")) == (200, expected), body
        elif path == "/v1/estimate_batch":
            assert (status, answer.get("estimates")) == (200, expected), body
        else:
            observed, served = expected
            assert status == 200, (answer, body)
            assert (answer["qerror"], answer["estimate"]) == (
                float(observed), served), body

    def still_serving(self) -> None:
        self.connection.request("GET", "/healthz")
        response = self.connection.getresponse()
        answer = json.loads(response.read())
        assert (response.status, answer["status"]) == (200, "ok")
        assert self.connection.sock is self.socket


def drive(surface: Surface, sqls: list[str], max_examples: int) -> None:
    """Post generated bodies over ``surface``'s one connection."""

    @seed(20261019)
    @settings(max_examples=max_examples, deadline=None)
    @given(request=requests(sqls))
    @example(request=("/v1/estimate", b"{broken"))
    @example(request=("/v1/estimate", b'["not", "an", "object"]'))
    @example(request=("/v1/estimate_batch", b'{"sql": [[1], null]}'))
    @example(request=("/v1/feedback",
                      b'{"sql": "\xff", "true_cardinality": 1}'))
    @example(request=("/v1/feedback", json.dumps(
        {"sql": sqls[0], "true_cardinality": True}).encode()))
    @example(request=("/v1/estimate",
                      json.dumps({"sql": ODD_SQL[3]}).encode()))
    # Literals that overflow a float: the partition lookup cast +-inf.
    @example(request=("/v1/estimate",
                      json.dumps({"sql": ODD_SQL[0]}).encode()))
    @example(request=("/v1/estimate_batch",
                      json.dumps({"sql": [ODD_SQL[1]]}).encode()))
    # A string literal on a numeric column, and LIKE, under Limited
    # Disjunction Encoding: both were 500s.
    @example(request=("/v1/estimate", b'{"sql": "select count(*) from '
                                      b'forest where (A1=\'0\')"}'))
    @example(request=("/v1/estimate_batch",
                      b'{"sql": ["select count(*) from forest '
                      b'where (A1=0 or A1 like \'%\')"]}'))
    def check(request: tuple[str, bytes]) -> None:
        surface.check(*request)

    check()
    surface.still_serving()


def spellings(n: int):
    """``Content-Length`` values around a body of ``n`` bytes."""
    digits = str(n)
    return st.one_of(
        st.just(digits),
        st.integers(0, n + 8).map(str),
        st.integers(0, 3).map(lambda zeros: "0" * zeros + digits),
        st.sampled_from([
            "", " ", "-1", "-0", "+" + digits, "-" + digits,
            digits[:1] + "_" + digits[1:], " " + digits, digits + " ",
            "\t" + digits + "\t", digits[:1] + " " + digits[1:],
            "\x0b" + digits, digits + "\x0c", digits + ".0", digits + "e0",
            hex(n), "\xb2", digits + "," + digits, "9" * 30, "9" * 5000,
            "0" * 5000 + digits, str(MAX_BODY_BYTES + 1)]))


@st.composite
def framings(draw, n: int):
    """``(lengths, encoding)``: one or two Content-Length values, and a
    Transfer-Encoding value or None."""
    lengths = [draw(spellings(n))]
    if draw(st.integers(0, 3)) == 0:
        lengths.append(draw(spellings(n)))
    encoding = None
    if draw(st.integers(0, 4)) == 0:
        encoding = draw(st.sampled_from(["chunked", "identity", "gzip"]))
    return lengths, encoding


def exchange(server, lengths: list[str], encoding: str | None,
             body: bytes) -> bytes:
    """POST ``body`` to ``/v1/estimate_batch`` under the given framing
    on a fresh socket and half-close it; everything the server sends
    until it closes the connection."""
    head = ("POST /v1/estimate_batch HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            + "".join(f"Content-Length: {value}\r\n" for value in lengths)
            + (f"Transfer-Encoding: {encoding}\r\n" if encoding else "")
            + "\r\n")
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(head.encode("latin-1") + body)
        sock.shutdown(socket.SHUT_WR)
        return b"".join(iter(lambda: sock.recv(65536), b""))


def first_response(data: bytes) -> tuple[int, dict, dict, bytes]:
    """Status, headers and JSON payload of the first response in
    ``data``, and the bytes after it."""
    head, _, data = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {name.strip().lower(): value.strip() for name, _, value
               in (line.partition(":") for line in lines[1:])}
    length = int(headers["content-length"])
    return (int(lines[0].split()[1]), headers, json.loads(data[:length]),
            data[length:])


def well_formed(lengths: list[str], encoding: str | None) -> int | None:
    """The body length the framing declares, or None if it is refused:
    a single Content-Length of ASCII digits less optional whitespace,
    and no Transfer-Encoding."""
    if encoding is not None or len(lengths) != 1:
        return None
    value = lengths[0].strip(" \t")
    if not (value.isascii() and value.isdigit()):
        return None
    # int() refuses more than 4,300 digits; more than the limit's
    # digits, leading zeros aside, is past the limit.
    value = value.lstrip("0") or "0"
    if len(value) > len(str(MAX_BODY_BYTES)):
        return MAX_BODY_BYTES + 1
    return int(value)


def drive_framing(server, sql: str, max_examples: int) -> None:
    """Raw framings of one request body against ``server``."""
    body = json.dumps({"sql": [sql]}).encode()
    n = len(body)
    answers: dict[bytes, tuple[int, dict]] = {}

    def answer(part: bytes) -> tuple[int, dict]:
        if part not in answers:
            status, _, payload, rest = first_response(
                exchange(server, [str(len(part))], None, part))
            assert rest == b""
            answers[part] = status, payload
        return answers[part]

    @seed(20261026)
    @settings(max_examples=max_examples, deadline=None)
    @given(framing=framings(n))
    @example(framing=(["+" + str(n)], None))
    @example(framing=([str(n)[:1] + "_" + str(n)[1:]], None))
    @example(framing=([str(n), "5"], None))
    @example(framing=([str(n)], "chunked"))
    @example(framing=(["9" * 5000], None))
    @example(framing=(["0" * 5000 + str(n)], None))
    def check(framing: tuple[list[str], str | None]) -> None:
        lengths, encoding = framing
        data = exchange(server, lengths, encoding, body)
        declared = well_formed(lengths, encoding)
        if declared is not None and n < declared <= MAX_BODY_BYTES:
            # The body ends short of the length: closed unanswered.
            assert data == b"", (framing, data)
            return
        status, headers, payload, rest = first_response(data)
        if declared is None or declared > MAX_BODY_BYTES:
            assert status in (400, 413), (framing, status, payload)
            assert headers["connection"] == "close", framing
            assert isinstance(payload["error"], str)
            assert rest == b"", (framing, rest)
        else:
            # The request is the first ``declared`` bytes; the rest is
            # the connection's next request.
            assert (status, payload) == answer(body[:declared]), framing

    check()
    assert answer(body)[0] == 200


def test_server_frames_every_request_strictly(complex_estimator,
                                              mixed_workload):
    sql = mixed_workload.queries[0].to_sql()
    with EstimationServer(EstimationService(complex_estimator)) as server:
        drive_framing(server, sql, max_examples=60)


def test_router_frames_every_request_strictly(
        local_fleet, conjunctive_workload):  # noqa: F811
    _, router = local_fleet(workers=2)
    with RouterServer(router) as server:
        drive_framing(server, conjunctive_workload.queries[0].to_sql(),
                      max_examples=60)


def test_server_answers_every_body_typed_or_exact(complex_estimator,
                                                  mixed_workload):
    sqls = [query.to_sql() for query in mixed_workload.queries[:40]]
    service = EstimationService(complex_estimator)
    with EstimationServer(service) as server:
        surface = Surface(server, complex_estimator)
        try:
            drive(surface, sqls, max_examples=200)
        finally:
            surface.close()


def test_router_answers_every_body_typed_or_exact(
        local_fleet, fleet_estimator, conjunctive_workload):  # noqa: F811
    sqls = [query.to_sql() for query in conjunctive_workload.queries[:40]]
    _, router = local_fleet(workers=2)
    with RouterServer(router) as server:
        surface = Surface(server, fleet_estimator)
        try:
            drive(surface, sqls, max_examples=150)
        finally:
            surface.close()
