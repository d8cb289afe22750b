"""JSON (de)serialization of scenarios: flows, routings, allocations.

A *scenario* — a Clos size, a flow collection, optionally a routing and
an allocation — fully determines every computation in this library, so
round-trippable scenario files make experiments shareable and
regression-pinnable.  Rates serialize as exact ``"p/q"`` strings so a
file re-loaded years later reproduces Fractions bit-for-bit.

The format is deliberately plain::

    {
      "format": "repro-scenario",
      "version": 1,
      "n": 3,
      "middle_count": 3,
      "flows": [{"src": [1, 2], "dst": [4, 1], "tag": 0}, ...],
      "routing": {"0": 2, ...},            # flow index -> middle switch
      "allocation": {"0": "1/3", ...}      # flow index -> exact rate
    }
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Any, Dict, Optional

from repro.core.allocation import Allocation
from repro.core.flows import Flow, FlowCollection
from repro.core.nodes import Destination, Source
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork

FORMAT_NAME = "repro-scenario"
FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario documents."""


class Scenario:
    """A self-contained, serializable experiment input.

    >>> clos = ClosNetwork(2)
    >>> flows = FlowCollection([Flow(clos.source(1, 1), clos.destination(3, 1))])
    >>> scenario = Scenario(clos, flows)
    >>> Scenario.from_json(scenario.to_json()).flows[0] == flows[0]
    True
    """

    def __init__(
        self,
        network: ClosNetwork,
        flows: FlowCollection,
        routing: Optional[Routing] = None,
        allocation: Optional[Allocation] = None,
    ) -> None:
        self.network = network
        self.flows = flows
        self.routing = routing
        self.allocation = allocation

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "n": self.network.n,
            "middle_count": self.network.num_middles,
            "flows": [
                {
                    "src": [flow.source.switch, flow.source.server],
                    "dst": [flow.dest.switch, flow.dest.server],
                    "tag": flow.tag,
                }
                for flow in self.flows
            ],
        }
        if self.routing is not None:
            middles = self.routing.middles(self.network)
            document["routing"] = {
                str(index): middles[flow]
                for index, flow in enumerate(self.flows)
            }
        if self.allocation is not None:
            document["allocation"] = {
                str(index): _rate_to_string(self.allocation.rate(flow))
                for index, flow in enumerate(self.flows)
            }
        return document

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    # ------------------------------------------------------------------
    # Deserialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Scenario":
        if document.get("format") != FORMAT_NAME:
            raise ScenarioError(
                f"not a {FORMAT_NAME} document: format={document.get('format')!r}"
            )
        if document.get("version") != FORMAT_VERSION:
            raise ScenarioError(
                f"unsupported version: {document.get('version')!r}"
            )
        try:
            n = int(document["n"])
            middle_count = int(document.get("middle_count", n))
            raw_flows = document["flows"]
        except (KeyError, TypeError, ValueError) as error:
            raise ScenarioError(f"malformed scenario header: {error}") from error

        network = ClosNetwork(n, middle_count=middle_count)
        flows = FlowCollection()
        for entry in raw_flows:
            try:
                src_switch, src_server = entry["src"]
                dst_switch, dst_server = entry["dst"]
                tag = int(entry.get("tag", 0))
            except (KeyError, TypeError, ValueError) as error:
                raise ScenarioError(f"malformed flow entry {entry!r}") from error
            flows.add(
                Flow(
                    network.source(src_switch, src_server),
                    network.destination(dst_switch, dst_server),
                    tag=tag,
                )
            )

        flow_list = list(flows)
        routing: Optional[Routing] = None
        if "routing" in document:
            middles: Dict[Flow, int] = {}
            for key, value in document["routing"].items():
                index = _flow_index(key, len(flow_list))
                middles[flow_list[index]] = int(value)
            routing = Routing.from_middles(network, flows, middles)

        allocation: Optional[Allocation] = None
        if "allocation" in document:
            rates: Dict[Flow, Fraction] = {}
            for key, value in document["allocation"].items():
                index = _flow_index(key, len(flow_list))
                rates[flow_list[index]] = _rate_from_string(value)
            if set(rates) != set(flow_list):
                raise ScenarioError("allocation does not cover every flow")
            allocation = Allocation(rates)

        return cls(network, flows, routing=routing, allocation=allocation)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid JSON: {error}") from error
        return cls.from_dict(document)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def _fsync_directory(directory: str) -> None:
    """Flush a rename to disk by fsyncing the containing directory.

    ``os.replace`` makes the swap atomic for concurrent *readers*, but
    the new directory entry itself lives in the page cache until the
    directory inode is synced — a SIGKILL (or power loss) immediately
    after the rename can surface the *old* file on restart.  Runner
    manifests and quarantine bundles both rely on rename-then-sync
    durability, so both atomic writers call this after replacing.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(fd)
    except OSError:
        pass  # the entry is still atomic, merely not yet durable
    finally:
        os.close(fd)


def write_json_atomic(path: str, document: Dict[str, Any]) -> str:
    """Write ``document`` as JSON via rename, so readers never see a torn
    file — a crash mid-write leaves either the old file or the new one.
    The temp file is fsynced before the rename and the directory after
    it, so the *new* content is durable once this returns.
    Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path), suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            json.dump(document, tmp, indent=2, sort_keys=True)
            tmp.write("\n")
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)
    return path


def read_json(path: str) -> Dict[str, Any]:
    """Load a JSON document, raising :class:`ScenarioError` on bad JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid JSON in {path}: {error}") from error


def write_jsonl_atomic(path: str, records) -> str:
    """Write an iterable of JSON-safe records as JSONL, atomically.

    One compact JSON document per line (the trace-export format of
    :mod:`repro.obs`), written via the same rename dance as
    :func:`write_json_atomic` — temp file fsynced before the rename,
    directory fsynced after — so a crash never leaves a torn file and
    the rename itself survives SIGKILL.  Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path), suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            for record in records:
                tmp.write(json.dumps(record, sort_keys=True))
                tmp.write("\n")
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)
    return path


def read_jsonl(path: str) -> list:
    """Load a JSONL file as a list of documents (blank lines skipped)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ScenarioError(
                    f"invalid JSON on line {line_number} of {path}: {error}"
                ) from error
    return records


def _rate_to_string(rate) -> str:
    fraction = Fraction(rate)
    return f"{fraction.numerator}/{fraction.denominator}"


def _rate_from_string(text: str) -> Fraction:
    try:
        numerator, denominator = text.split("/")
        return Fraction(int(numerator), int(denominator))
    except (ValueError, ZeroDivisionError) as error:
        raise ScenarioError(f"malformed rate {text!r}") from error


def _flow_index(key: str, count: int) -> int:
    try:
        index = int(key)
    except ValueError as error:
        raise ScenarioError(f"malformed flow index {key!r}") from error
    if not 0 <= index < count:
        raise ScenarioError(f"flow index {index} out of range [0, {count})")
    return index
