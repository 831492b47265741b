"""Cross-file contracts no single module can check: wire and metric drift.

The wire protocol's builders write header fields in
``service/protocol.py`` that the daemon and the client read two files
away; a metric registered in one subsystem is asserted on by exporters
and tests that know only its string name.  Both contracts are string
vocabularies, so a walk over the syntax trees of the real tree checks
them exactly.  :func:`frame_drift` and :func:`metric_drift` return the
drift as sorted messages; each has one drifted and one clean fixture.
"""

import ast
import pathlib
import re
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"

#: receivers read as frame headers, by naming convention
_HEADER_NAMES = ("header", "hello", "frame", "doc")

_METRIC_NAME = re.compile(r"^rfdumpd?_[a-z0-9]+(?:_[a-z0-9]+)+$")
#: series the Prometheus export derives from a registered histogram
_HISTOGRAM_SERIES = ("_bucket", "_sum", "_count")


def _parse(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _source(text):
    return ast.parse(textwrap.dedent(text))


def _str(node):
    """The value of a string literal, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_header(node):
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    return name is not None and any(h in name.lower() for h in _HEADER_NAMES)


def _reads_type(node, type_locals):
    """Is ``node`` the value of a frame's ``type`` field?"""
    if isinstance(node, ast.Name):
        return node.id in type_locals
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and bool(node.args)
                and _str(node.args[0]) == "type")
    if isinstance(node, ast.Subscript):
        return _str(node.slice) == "type"
    return False


def frame_drift(trees):
    """Wire-protocol drift across the modules that speak it.

    * a header field a parser reads (``header.get("seq")``,
      ``hello["from_seq"]``, ``"type" in header``) that no builder emits
      (a dict literal with a ``"type"`` key, ``dict(header, k=...)``, or
      ``header["k"] = ...``);
    * a frame type a parser matches on that nothing builds, and one
      built that nothing matches;
    * an ``X_frame`` builder without its ``decode_X``, and the reverse.
    """
    emitted, required, built, matched = set(), set(), set(), set()
    builders, decoders = set(), set()
    for tree in trees:
        nodes = list(ast.walk(tree))
        type_locals = {
            target.id for node in nodes
            if isinstance(node, ast.Assign) and _reads_type(node.value, ())
            for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Dict):
                keys = [_str(k) for k in node.keys]
                if "type" in keys:
                    emitted.update(k for k in keys if k)
                    built.update(_str(v) for k, v in zip(keys, node.values)
                                 if k == "type" and _str(v))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "dict":
                    emitted.update(kw.arg for kw in node.keywords if kw.arg)
                elif (isinstance(func, ast.Attribute) and func.attr == "get"
                        and _is_header(func.value) and node.args
                        and _str(node.args[0])):
                    required.add(_str(node.args[0]))
            elif isinstance(node, ast.Subscript):
                if _is_header(node.value) and _str(node.slice):
                    if isinstance(node.ctx, ast.Store):
                        emitted.add(_str(node.slice))
                    elif isinstance(node.ctx, ast.Load):
                        required.add(_str(node.slice))
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                left, right = node.left, node.comparators[0]
                if isinstance(node.ops[0], (ast.In, ast.NotIn)):
                    if _str(left) and _is_header(right):
                        required.add(_str(left))
                elif isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                    for literal, other in ((left, right), (right, left)):
                        if (_str(literal) is not None and _str(other) is None
                                and _reads_type(other, type_locals)):
                            matched.add(_str(literal))
            elif isinstance(node, ast.FunctionDef):
                if (node.name.endswith("_frame")
                        and node.name not in ("send_frame", "recv_frame")):
                    builders.add(node.name[:-len("_frame")])
                elif node.name.startswith("decode_"):
                    decoders.add(node.name[len("decode_"):])
    return (
        [f"field {k!r} is read but no builder emits it"
         for k in sorted(required - emitted)]
        + [f"frame type {t!r} is matched but never built"
           for t in sorted(matched - built)]
        + [f"frame type {t!r} is built but never matched"
           for t in sorted(built - matched)]
        + [f"{n}_frame has no decode_{n}" for n in sorted(builders - decoders)]
        + [f"decode_{n} has no {n}_frame" for n in sorted(decoders - builders)]
    )


def registered_metrics(trees):
    """Names passed as a literal to a ``.counter/.gauge/.histogram`` call."""
    return {
        _str(node.args[0]) for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("counter", "gauge", "histogram")
        and node.args and _str(node.args[0])}


def metric_drift(registering, referencing):
    """``rfdump[d]_*`` names in ``referencing`` that ``registering`` never
    registers, modulo the histogram series suffixes."""
    registered = registered_metrics(registering)

    def known(name):
        return name in registered or any(
            name.endswith(s) and name[:-len(s)] in registered
            for s in _HISTOGRAM_SERIES)

    return sorted({
        _str(node) for tree in referencing for node in ast.walk(tree)
        if _str(node) and _METRIC_NAME.match(_str(node))
        and not known(_str(node))})


class TestFrameFieldDrift:
    def test_all_five_drift_shapes(self):
        drifted = _source("""
            def hello_frame():
                return {"type": "hello", "proto": 1}


            def decode_hello(header):
                return header["proto"]


            def orphan_frame():
                return {"type": "orphan"}


            def decode_bye(doc):
                return doc["type"]


            def handle(header):
                ftype = header.get("type")
                if ftype == "hello":
                    return header.get("missing_field")
                if ftype == "goodbye":
                    return None
                return ftype
        """)
        assert frame_drift([drifted]) == [
            "field 'missing_field' is read but no builder emits it",
            "frame type 'goodbye' is matched but never built",
            "frame type 'orphan' is built but never matched",
            "orphan_frame has no decode_orphan",
            "decode_bye has no bye_frame",
        ]

    def test_paired_builder_and_emitted_fields_are_clean(self):
        # a builder in one module, its decoder and the parser in another;
        # "seq" is emitted by an augmentation, "nbytes" through dict()
        builder = _source("""
            def window_frame(n):
                header = {"type": "window", "v": 1}
                header["seq"] = n
                return dict(header, nbytes=4)
        """)
        parser = _source("""
            def decode_window(header):
                return header["seq"], header.get("nbytes"), header["v"]


            def serve(frame):
                if "type" not in frame or frame["type"] != "window":
                    return None
                return decode_window(frame)
        """)
        assert frame_drift([builder, parser]) == []

    def test_repo_protocol_does_not_drift(self):
        sources = sorted((PACKAGE / "service").glob("*.py"))
        sources.append(PACKAGE / "tools" / "rfdumpd.py")
        assert frame_drift(_parse(sources)) == []


class TestMetricNameDrift:
    REGISTRY = _source("""
        def setup(registry):
            registry.counter("rfdump_windows_total")
            registry.histogram("rfdump_window_seconds")
    """)

    def test_unregistered_reference_in_tests_is_found(self):
        reference = _source("""
            def test_names(registry):
                return registry.value("rfdump_missing_total")
        """)
        (stale,) = metric_drift([self.REGISTRY], [reference])
        assert stale.endswith("_missing_total")

    def test_registered_and_histogram_series_names_are_known(self):
        reference = _source("""
            def test_names(page):
                assert "rfdump_windows_total" in page
                assert "rfdump_window_seconds_bucket" in page
                assert "rfdump_window_seconds_count" in page
        """)
        assert metric_drift([self.REGISTRY], [reference]) == []

    def test_repo_metric_names_do_not_drift(self):
        src = _parse(sorted(PACKAGE.rglob("*.py")))
        tests = _parse(sorted((REPO / "tests").rglob("*.py")))
        found = registered_metrics(src)
        # the walk found the registry: every layer's core series, by name
        assert {"rfdump_samples_total", "rfdump_peaks_total",
                "rfdump_ranges_dispatched_total",
                "rfdump_packets_decoded_total", "rfdump_stage_seconds",
                "rfdump_window_latency_seconds",
                "rfdumpd_events_published_total"} <= found
        assert len(found) >= 40
        assert metric_drift(src, src + tests) == []


#: the most bytes the newest CHANGES.md entry may take
CHANGES_ENTRY_BYTES = 2_048


def newest_changes_entry(text):
    """The last ``## PR`` section of a CHANGES.md text, to its end."""
    starts = [m.start() for m in re.finditer(r"(?m)^## PR ", text)]
    return text[starts[-1]:] if starts else ""


class TestChangesEntrySize:
    """The newest CHANGES.md entry says what a change did in at most
    2 KB, so the file stays a ledger a reader can scan."""

    def test_newest_entry_fits(self):
        entry = newest_changes_entry(
            (REPO / "CHANGES.md").read_text(encoding="utf-8"))
        assert entry, "CHANGES.md has no '## PR' entry"
        size = len(entry.encode("utf-8"))
        assert size <= CHANGES_ENTRY_BYTES, (
            f"newest CHANGES.md entry is {size} bytes "
            f"(at most {CHANGES_ENTRY_BYTES})")

    def test_the_newest_section_is_the_last(self):
        text = "# log\n\n## PR 1 — a\n\n- x\n\n## PR 2 — b\n\n- y\nFOUND: z\n"
        assert newest_changes_entry(text) == "## PR 2 — b\n\n- y\nFOUND: z\n"
