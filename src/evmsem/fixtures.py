"""Fixture format: JSON scenarios binding a pre-state, a transaction, a block
header, optional expectations and checker parameters.

Addresses and words are 0x-prefixed lowercase hex; code is either a hex
string or {"asm": "<assembly text>"}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .bytecode import BYTE_TO_MNEMONIC, assemble, is_push, next_instr_pos
from .checkers import ScenarioSpace
from .state import Account, BlockHeader, GlobalState
from .transaction import Transaction, Receipt
from .words import (address_to_hex, bytes_to_hex, hex_to_address, hex_to_bytes,
                    hex_to_word, word_to_hex)


class FixtureError(ValueError):
    pass


@dataclass
class Fixture:
    name: str
    pre: GlobalState
    tx: Transaction
    header: BlockHeader
    ancestors: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    checker_params: dict = field(default_factory=dict)

    def space(self, max_steps: Optional[int] = None,
              relaxed_gas: bool = False) -> ScenarioSpace:
        p = self.checker_params
        return ScenarioSpace(
            pre=self.pre,
            tx=self.tx,
            header=self.header,
            ancestors=self.ancestors,
            max_steps=p.get("max_steps", 200_000) if max_steps is None else max_steps,
            gas_values=tuple(p.get("gas_values", ())),
            component_values=dict(p.get("components", {})),
            code_variants=dict(p.get("code_variants", {})),
            account_perturbations=dict(p.get("account_perturbations", {})),
            finpot_samples=p.get("finpot_samples", 8),
            relaxed_gas=relaxed_gas,
        )

    def contract(self):
        """The contract under analysis: (address, code). The code defaults to
        the account's pre-state code; contract_code overrides it for contracts
        that only come into existence during the scenario."""
        addr = self.checker_params.get("contract")
        if addr is None:
            raise FixtureError(f"{self.name}: checker_params.contract missing")
        override = self.checker_params.get("contract_code")
        if override is not None:
            return (addr, _decode_code(override))
        acct = self.pre.get(addr)
        return (addr, acct.code if acct else b"")


_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", int: "an integer"}


def _typed(value, kind: type, what: str):
    """value, which must be a JSON object (dict), array (list) or integer
    (int); parse_fixture reports the TypeError as a FixtureError."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")
    return value


def _decode_code(value) -> bytes:
    if isinstance(value, dict):
        if not isinstance(value.get("asm"), str):
            raise FixtureError(f"code object needs an 'asm' string: {value!r}")
        return assemble(value["asm"])
    return hex_to_bytes(value)


def _decode_header(obj: dict) -> BlockHeader:
    _typed(obj, dict, "header")
    return BlockHeader(
        parent=hex_to_word(obj.get("parent", "0x0")),
        beneficiary=hex_to_address(obj.get("beneficiary", "0x" + "00" * 20)),
        difficulty=hex_to_word(obj.get("difficulty", "0x0")),
        number=hex_to_word(obj.get("number", "0x0")),
        gaslimit=hex_to_word(obj.get("gaslimit", "0x0")),
        timestamp=hex_to_word(obj.get("timestamp", "0x0")),
    )


def parse_fixture(obj, name: str = "<fixture>") -> Fixture:
    if isinstance(obj, (str, Path)):
        path = Path(obj)
        name = path.stem
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise FixtureError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(obj, dict):
        raise FixtureError(f"{name}: fixture must be a JSON object")

    try:
        accounts = {}
        for addr_hex, acct in _typed(obj.get("pre", {}), dict, "pre").items():
            _typed(acct, dict, f"pre[{addr_hex}]")
            storage = {hex_to_word(k): hex_to_word(v)
                       for k, v in _typed(acct.get("storage", {}), dict, "storage").items()
                       if hex_to_word(v) != 0}
            accounts[hex_to_address(addr_hex)] = Account(
                nonce=hex_to_word(acct.get("nonce", "0x0")),
                balance=hex_to_word(acct.get("balance", "0x0")),
                storage=storage,
                code=_decode_code(acct.get("code", "0x")),
            )
        pre = GlobalState(accounts)

        txo = _typed(obj["tx"], dict, "tx")
        tx_type = txo.get("type", "call")
        tx = Transaction(
            nonce=hex_to_word(txo.get("nonce", "0x0")),
            gas_price=hex_to_word(txo.get("gasprice", "0x0")),
            gas_limit=hex_to_word(txo["gaslimit"]),
            to=hex_to_address(txo["to"]) if tx_type == "call" else None,
            value=hex_to_word(txo.get("value", "0x0")),
            sender=hex_to_address(txo["sender"]),
            input=hex_to_bytes(txo.get("input", "0x")),
            type=tx_type,
        )

        header = _decode_header(obj.get("header", {}))
        ancestors = {}
        for anc in _typed(obj.get("ancestors", []), list, "ancestors"):
            _typed(anc, dict, "ancestor")
            ancestors[hex_to_word(anc["hash"])] = _decode_header(anc)

        params = dict(_typed(obj.get("checker_params", {}), dict, "checker_params"))
        for key in ("max_steps", "finpot_samples"):
            if key in params:
                _typed(params[key], int, key)
        if params.get("max_steps", 1) <= 0:
            raise FixtureError(f"{name}: checker_params.max_steps must be positive")
        if "contract" in params:
            params["contract"] = hex_to_address(params["contract"])
        if "untrusted" in params:
            params["untrusted"] = [hex_to_address(a) for a in params["untrusted"]]
        if "allowed" in params:
            params["allowed"] = [hex_to_address(a) for a in params["allowed"]]
        if "gas_values" in params:
            params["gas_values"] = [hex_to_word(g) for g in params["gas_values"]]
        if "components" in params:
            params["components"] = {k: [hex_to_word(v) for v in vs]
                                    for k, vs in _typed(params["components"], dict,
                                                        "components").items()}
        if "code_variants" in params:
            params["code_variants"] = {
                hex_to_address(a): [_decode_code(c) for c in variants]
                for a, variants in _typed(params["code_variants"], dict,
                                          "code_variants").items()}
        if "account_perturbations" in params:
            ap = dict(_typed(params["account_perturbations"], dict, "account_perturbations"))
            for key in ("balance_deltas", "nonce_bumps"):
                for d in _typed(ap.get(key, []), list, key):
                    _typed(d, int, key)
            if "storage_set" in ap:
                ap["storage_set"] = {hex_to_word(k): hex_to_word(v)
                                     for k, v in _typed(ap["storage_set"], dict,
                                                        "storage_set").items()}
            params["account_perturbations"] = ap

        expect = dict(_typed(obj.get("expect", {}), dict, "expect"))
        _typed(expect.get("verdicts", {}), dict, "expect.verdicts")
        for addr_hex, want in _typed(expect.get("post", {}), dict, "expect.post").items():
            _typed(want, dict, f"expect.post[{addr_hex}]")
            _typed(want.get("storage", {}), dict, f"expect.post[{addr_hex}].storage")
        return Fixture(name=name, pre=pre, tx=tx, header=header,
                       ancestors=ancestors, expect=expect, checker_params=params)
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, FixtureError):
            raise
        raise FixtureError(f"{name}: {e}") from e


def fixture_to_json(f: Fixture) -> dict:
    def header_json(h: BlockHeader, hash_=None) -> dict:
        d = {
            "parent": word_to_hex(h.parent),
            "beneficiary": address_to_hex(h.beneficiary),
            "difficulty": word_to_hex(h.difficulty),
            "number": word_to_hex(h.number),
            "gaslimit": word_to_hex(h.gaslimit),
            "timestamp": word_to_hex(h.timestamp),
        }
        if hash_ is not None:
            d = {"hash": word_to_hex(hash_), **d}
        return d

    pre = {}
    for addr, acct in sorted(f.pre.items()):
        pre[address_to_hex(addr)] = {
            "nonce": word_to_hex(acct.nonce),
            "balance": word_to_hex(acct.balance),
            "storage": {word_to_hex(k): word_to_hex(v)
                        for k, v in sorted(acct.storage.items())},
            "code": bytes_to_hex(acct.code),
        }
    txo = {
        "type": f.tx.type,
        "nonce": word_to_hex(f.tx.nonce),
        "gasprice": word_to_hex(f.tx.gas_price),
        "gaslimit": word_to_hex(f.tx.gas_limit),
        "value": word_to_hex(f.tx.value),
        "sender": address_to_hex(f.tx.sender),
        "input": bytes_to_hex(f.tx.input),
    }
    if f.tx.to is not None:
        txo["to"] = address_to_hex(f.tx.to)

    params = dict(f.checker_params)
    if "contract" in params:
        params["contract"] = address_to_hex(params["contract"])
    if "untrusted" in params:
        params["untrusted"] = [address_to_hex(a) for a in params["untrusted"]]
    if "allowed" in params:
        params["allowed"] = [address_to_hex(a) for a in params["allowed"]]
    if "gas_values" in params:
        params["gas_values"] = [word_to_hex(g) for g in params["gas_values"]]
    if "components" in params:
        params["components"] = {k: [word_to_hex(v) for v in vs]
                                for k, vs in params["components"].items()}
    if "code_variants" in params:
        params["code_variants"] = {address_to_hex(a): [bytes_to_hex(c) for c in vs]
                                   for a, vs in params["code_variants"].items()}
    if "account_perturbations" in params and "storage_set" in params["account_perturbations"]:
        ap = dict(params["account_perturbations"])
        ap["storage_set"] = {word_to_hex(k): word_to_hex(v)
                             for k, v in ap["storage_set"].items()}
        params["account_perturbations"] = ap

    out = {"name": f.name, "pre": pre, "tx": txo,
           "header": header_json(f.header)}
    if f.ancestors:
        out["ancestors"] = [header_json(h, hash_) for hash_, h in sorted(f.ancestors.items())]
    if f.expect:
        out["expect"] = f.expect
    if params:
        out["checker_params"] = params
    return out


def check_expectations(f: Fixture, sigma: GlobalState, receipt: Receipt) -> list:
    """Compare an execution result against the fixture's `expect` section;
    returns a list of human-readable mismatches (empty = match)."""
    problems = []
    exp = f.expect
    if "status" in exp and receipt.status != exp["status"]:
        problems.append(f"status: expected {exp['status']}, got {receipt.status}")
    if "gas_used" in exp and receipt.gas_used != hex_to_word(exp["gas_used"]):
        problems.append(f"gas_used: expected {exp['gas_used']}, got {hex(receipt.gas_used)}")
    if "logs" in exp and len(receipt.logs) != exp["logs"]:
        problems.append(f"logs: expected {exp['logs']}, got {len(receipt.logs)}")
    if "created" in exp:
        want = hex_to_address(exp["created"]) if exp["created"] else None
        if receipt.created != want:
            problems.append(f"created: expected {exp['created']}, got {receipt.created}")
    for addr_hex, want in exp.get("post", {}).items():
        addr = hex_to_address(addr_hex)
        acct = sigma.get(addr)
        if want.get("exists") is False:
            if acct is not None:
                problems.append(f"{addr_hex}: expected deleted, still present")
            continue
        if acct is None:
            problems.append(f"{addr_hex}: expected present, account missing")
            continue
        if "balance" in want and acct.balance != hex_to_word(want["balance"]):
            problems.append(f"{addr_hex}.balance: expected {want['balance']},"
                            f" got {hex(acct.balance)}")
        if "nonce" in want and acct.nonce != hex_to_word(want["nonce"]):
            problems.append(f"{addr_hex}.nonce: expected {want['nonce']},"
                            f" got {hex(acct.nonce)}")
        if "code" in want and acct.code != hex_to_bytes(want["code"]):
            problems.append(f"{addr_hex}.code mismatch")
        for k, v in want.get("storage", {}).items():
            if acct.storage_get(hex_to_word(k)) != hex_to_word(v):
                problems.append(f"{addr_hex}.storage[{k}]: expected {v},"
                                f" got {hex(acct.storage_get(hex_to_word(k)))}")
    return problems


# ---------------------------------------------------------------------------
# best-effort ingestion of GeneralStateTest-style JSON


def _uses_unsupported_opcodes(code: bytes) -> Optional[str]:
    i = 0
    while i < len(code):
        byte = code[i]
        if byte not in BYTE_TO_MNEMONIC and not is_push(byte):
            return f"unsupported opcode 0x{byte:02x} at offset {i}"
        i = next_instr_pos(i, byte)
    return None


def ingest_official_tests(directory) -> tuple:
    """Translate GeneralStateTest-style JSON files into fixtures.

    Returns (fixtures, skipped) where skipped is a list of (source, reason);
    untranslatable files never abort the batch.
    """
    fixtures = []
    skipped = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            skipped.append((str(path), f"unreadable: {e}"))
            continue
        for test_name, body in doc.items():
            src = f"{path.name}::{test_name}"
            try:
                fixtures.append(_ingest_one(test_name, body))
            except FixtureError as e:
                skipped.append((src, str(e)))
            except (KeyError, TypeError, ValueError) as e:
                skipped.append((src, f"untranslatable: {e}"))
    return fixtures, skipped


def _ingest_one(name: str, body: dict) -> Fixture:
    env = body["env"]
    txo = body["transaction"]
    sender = txo.get("sender")
    if not sender:
        raise FixtureError("no sender field (secretKey recovery unsupported)")

    pre_obj = {}
    for addr, acct in body["pre"].items():
        code = acct.get("code", "0x") or "0x"
        reason = _uses_unsupported_opcodes(hex_to_bytes(code))
        if reason:
            raise FixtureError(f"account {addr}: {reason}")
        pre_obj[addr] = {
            "nonce": acct.get("nonce", "0x0"),
            "balance": acct.get("balance", "0x0"),
            "code": code,
            "storage": acct.get("storage", {}),
        }

    def first(v):
        return v[0] if isinstance(v, list) else v

    to = txo.get("to", "")
    fixture_tx = {
        "type": "call" if to else "create",
        "nonce": txo.get("nonce", "0x0"),
        "gasprice": txo.get("gasPrice", "0x0"),
        "gaslimit": first(txo["gasLimit"]),
        "value": first(txo.get("value", "0x0")),
        "sender": sender,
        "input": first(txo.get("data", "0x")),
    }
    if to:
        fixture_tx["to"] = to

    obj = {
        "pre": pre_obj,
        "tx": fixture_tx,
        "header": {
            "parent": env.get("previousHash", "0x0"),
            "beneficiary": env.get("currentCoinbase", "0x" + "00" * 20),
            "difficulty": env.get("currentDifficulty", "0x0"),
            "number": env.get("currentNumber", "0x0"),
            "gaslimit": env.get("currentGasLimit", "0x0"),
            "timestamp": env.get("currentTimestamp", "0x0"),
        },
    }
    if "expect" in body and isinstance(body["expect"], dict):
        obj["expect"] = body["expect"]
    return parse_fixture(obj, name=name)
