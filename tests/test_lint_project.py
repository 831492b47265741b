"""Whole-program analyzer: ProjectContext index, RFD701-706, acceptance.

Fixture trees are written under ``tmp_path/src/repro/...`` so
``package_rel_path`` roots them exactly like the real tree, then run
through :func:`lint_project`.  The acceptance tests at the bottom pin
the ISSUE's gate: the real repo produces **zero** active RFD7xx
findings, and its static lock graph contains the one cross-class edge
the service stack is designed around (``service.hub ->
service.subscriber``).
"""

import os
import textwrap

import pytest

from repro.lint import build_project, lint_project
from repro.lint.rules.concurrency_project import build_lock_graph
from repro.tools import rflint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
TESTS = os.path.join(REPO_ROOT, "tests")

RACY = """
import queue
import threading
import time


class Racy:
    def __init__(self):
        self._lock = threading.Lock()
        self._other = threading.Lock()
        self._cv = threading.Condition()
        self._items = []
        self.count = 0

    def guarded(self):
        with self._lock:
            self._items.append(1)
            self.count += 1

    def unguarded_assign(self):
        self.count = 5

    def unguarded_mutator(self):
        self._items.append(2)

    def sleepy(self):
        with self._lock:
            time.sleep(0.1)

    def queue_get(self):
        q = queue.Queue()
        with self._lock:
            q.get()

    def waits_with_two(self):
        with self._other:
            with self._cv:
                self._cv.wait()

    def order_ab(self):
        with self._lock:
            with self._other:
                pass

    def order_ba(self):
        with self._other:
            with self._lock:
                pass


def spawn():
    worker = threading.Thread(target=print)
    worker.start()
    return worker
"""


def _write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


@pytest.fixture
def racy_findings(tmp_path):
    src = _write_tree(tmp_path, {"src/repro/svc/racy.py": RACY})
    return lint_project([src])


def _by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestUnguardedSharedWrite:
    def test_both_unguarded_writes_found(self, racy_findings):
        found = _by_rule(racy_findings, "RFD701")
        assert len(found) == 2
        messages = "\n".join(f.message for f in found)
        assert "Racy.unguarded_assign writes self.count" in messages
        assert "Racy.unguarded_mutator writes self._items" in messages

    def test_guarded_and_init_writes_are_clean(self, racy_findings):
        for finding in _by_rule(racy_findings, "RFD701"):
            assert "__init__" not in finding.message
            assert ".guarded " not in finding.message


class TestBlockingCallUnderLock:
    def test_sleep_queue_and_multilock_wait(self, racy_findings):
        found = _by_rule(racy_findings, "RFD702")
        messages = [f.message for f in found]
        assert len(found) == 3
        assert any("time.sleep" in m for m in messages)
        assert any("queue .get() without timeout" in m for m in messages)
        assert any("unbounded .wait()" in m for m in messages)

    def test_waiting_on_own_condition_alone_is_the_protocol(self, tmp_path):
        src = _write_tree(tmp_path, {"src/repro/svc/cv.py": """
            import threading


            class Consumer:
                def __init__(self):
                    self._cv = threading.Condition()
                    self.ready = False

                def block_until_ready(self):
                    with self._cv:
                        while not self.ready:
                            self._cv.wait()
        """})
        assert _by_rule(lint_project([src]), "RFD702") == []


class TestLockOrderCycle:
    def test_conflicting_with_nesting_is_a_cycle(self, racy_findings):
        found = _by_rule(racy_findings, "RFD703")
        assert len(found) == 1
        assert ("lock-order cycle: Racy._lock -> Racy._other -> Racy._lock"
                in found[0].message)

    def test_cross_class_call_extends_the_graph(self, tmp_path):
        src = _write_tree(tmp_path, {"src/repro/svc/hub2.py": """
            from repro.sanitize.hooks import new_condition, new_lock


            class Mailbox:
                def __init__(self):
                    self._cond = new_condition("svc.mailbox")

                def put_final(self, item):
                    with self._cond:
                        return item


            class Hub2:
                def __init__(self):
                    self._lock = new_lock("svc.hub")
                    self._mailbox = Mailbox()

                def publish(self, item):
                    with self._lock:
                        self._mailbox.put_final(item)
        """})
        graph = build_lock_graph(build_project([src]))
        assert ("svc.hub", "svc.mailbox") in graph.edges
        # consistent ordering only: no cycle finding
        assert _by_rule(lint_project([src]), "RFD703") == []

    def test_interprocedural_inversion_is_found(self, tmp_path):
        src = _write_tree(tmp_path, {"src/repro/svc/inv.py": """
            from repro.sanitize.hooks import new_lock


            class Inner:
                def __init__(self):
                    self._lock = new_lock("svc.inner")
                    self._back = Outer()

                def poke(self):
                    with self._lock:
                        self._back.touch()


            class Outer:
                def __init__(self):
                    self._lock = new_lock("svc.outer")
                    self._inner = Inner()

                def touch(self):
                    with self._lock:
                        return None

                def run(self):
                    with self._lock:
                        self._inner.poke()
        """})
        found = _by_rule(lint_project([src]), "RFD703")
        assert any(
            "lock-order cycle: svc.inner -> svc.outer -> svc.inner"
            in f.message for f in found)


class TestUnjoinedThread:
    def test_bare_thread_is_flagged(self, racy_findings):
        found = _by_rule(racy_findings, "RFD704")
        assert len(found) == 1
        assert "neither daemon" in found[0].message

    def test_daemon_or_bounded_join_is_clean(self, tmp_path):
        src = _write_tree(tmp_path, {"src/repro/svc/threads.py": """
            import threading


            def daemonized():
                return threading.Thread(target=print, daemon=True)


            def joined():
                worker = threading.Thread(target=print)
                worker.start()
                worker.join(timeout=5.0)
        """})
        assert _by_rule(lint_project([src]), "RFD704") == []


class TestFrameFieldDrift:
    @pytest.fixture
    def proto_findings(self, tmp_path):
        src = _write_tree(tmp_path, {"src/repro/service/proto.py": """
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
        """})
        return _by_rule(lint_project([src]), "RFD705")

    def test_all_five_drift_shapes(self, proto_findings):
        messages = [f.message for f in proto_findings]
        assert len(messages) == 5
        assert any("requires header field 'missing_field'" in m
                   for m in messages)
        assert any("matches frame type 'goodbye'" in m for m in messages)
        assert any("'orphan' is emitted but no parser" in m for m in messages)
        assert any("builder orphan_frame has no decode_orphan" in m
                   for m in messages)
        assert any("decoder decode_bye has no bye_frame" in m
                   for m in messages)

    def test_paired_builder_and_emitted_fields_are_clean(self,
                                                         proto_findings):
        messages = "\n".join(f.message for f in proto_findings)
        # hello_frame/decode_hello pair, emitted "proto" field, checked
        # "hello" type: none of these drift
        assert "hello_frame" not in messages
        assert "'proto'" not in messages
        assert "frame type 'hello'" not in messages

    def test_non_protocol_modules_are_out_of_scope(self, tmp_path):
        src = _write_tree(tmp_path, {"src/repro/phy/frames.py": """
            def handle(header):
                return header.get("nonexistent_field")
        """})
        assert _by_rule(lint_project([src]), "RFD705") == []


class TestMetricNameDrift:
    @pytest.fixture
    def metric_tree(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/obs/reg.py": """
                class Registry:
                    def counter(self, name):
                        return name


                def setup(registry):
                    registry.counter("rfdump_windows_total")
                    return registry
            """,
            "tests/test_metrics_ref.py": """
                def test_names():
                    good = "rfdump_windows_total"
                    series = "rfdump_windows_total_count"
                    stale = "rfdump_missing_total"
                    return good, series, stale
            """,
        })
        return str(tmp_path / "src"), str(tmp_path / "tests")

    def test_unregistered_reference_in_tests_is_found(self, metric_tree):
        src, tests = metric_tree
        found = _by_rule(lint_project([src], reference_paths=[tests]),
                         "RFD706")
        assert len(found) == 1
        assert "rfdump_missing_total" in found[0].message  # rfdump: noqa[RFD706]

    def test_registered_and_histogram_series_names_are_known(
            self, metric_tree):
        src, tests = metric_tree
        messages = [f.message for f in
                    _by_rule(lint_project([src], reference_paths=[tests]),
                             "RFD706")]
        assert not any("rfdump_windows_total" in m  # rfdump: noqa[RFD706]
                       for m in messages)


class TestProjectContext:
    def test_index_shapes(self, tmp_path):
        src = _write_tree(tmp_path, {"src/repro/svc/ctx.py": """
            import threading

            from repro.sanitize.hooks import new_lock


            class Box:
                def __init__(self):
                    self._lock = new_lock("svc.box")
                    self._plain = threading.Lock()
                    self._peer = Peer()

                @property
                def size(self):
                    return 0


            class Peer:
                def run(self):
                    worker = threading.Thread(target=print, daemon=True)
                    worker.start()
        """})
        project = build_project([src])
        box = project.classes["Box"]
        assert box.lock_attrs == {"_lock": "svc.box", "_plain": "Box._plain"}
        assert box.attr_types["_peer"] == "Peer"
        assert box.properties == {"size"}
        assert project.resolve_attr_class(box, "_peer").name == "Peer"
        assert project.classes["Peer"].spawns_threads
        assert "threading" in project.import_graph["repro/svc/ctx.py"]

    def test_noqa_suppresses_project_findings(self, tmp_path):
        src = _write_tree(tmp_path, {"src/repro/svc/quiet.py": """
            import threading


            def spawn():
                worker = threading.Thread(target=print)  # rfdump: noqa[RFD704]
                worker.start()
                return worker
        """})
        assert lint_project([src]) == []


class TestRepoAcceptance:
    def test_repo_has_zero_active_project_findings(self):
        """The ISSUE gate: the whole-program pass is clean on the tree."""
        findings = lint_project([SRC], reference_paths=[TESTS])
        assert findings == [], "\n" + "\n".join(f.format() for f in findings)

    def test_repo_lock_graph_has_hub_to_subscriber_edge(self):
        project = build_project([SRC])
        hub = project.classes["EventHub"]
        assert "service.hub" in hub.lock_attrs.values()
        queue_cls = project.classes["SubscriberQueue"]
        assert "service.subscriber" in queue_cls.lock_attrs.values()
        graph = build_lock_graph(project)
        assert ("service.hub", "service.subscriber") in graph.edges

    def test_cli_project_mode_defaults_and_exits_zero(self, monkeypatch,
                                                      capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert rflint.main(["--project"]) == 0

    def test_cli_list_rules_names_project_rules(self, capsys):
        rflint.main(["--list-rules"])
        out = capsys.readouterr().out
        for rule_id in ("RFD701", "RFD702", "RFD703", "RFD704",
                        "RFD705", "RFD706"):
            assert rule_id in out
            assert "(--project)" in out
