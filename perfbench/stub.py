"""Local stand-in for the four remote services, run as its own process.

    python3 perfbench/stub.py QUERIES_JSONL LATENCY_MS

Standard library only, one thread: an asyncio HTTP/1.1 server with
keep-alive, so connection reuse by a client would show in the counts.
Every reply is a deterministic function of the request payload and waits
a fixed latency first. Routes:

  /v1/chat        chat completions; a document in the style of the offline
                  synthetic generator (question terms, style marker, the
                  gold answer for a seeded share of questions)
  /v1/embeddings  hashed bag-of-words vectors
  /v1/score       share of query terms a passage contains
  /v1/detect      "generated" iff the text carries the style marker

The first attempt of every chat request whose question holds the fault
token is answered 429 with `Retry-After: 0`; a repeat of the same payload
is answered normally and counted as a retried request. A phase's chat
requests all come between its retrieval calls and the next phase's, and
with a source filter a query's prompt can repeat from one phase to the
next, so any request to another route ends the chat block and the stub
forgets which payloads it has refused.

The port is printed as one JSON line on stdout when the server is up. When
stdin closes, the server stops and prints its counters as one JSON line.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import re
import sys
import zlib

from workloads import FAULT_TOKEN, STYLE_MARKER

EMBED_DIM = 64
KNOWS_ANSWER_SHARE = 0.8
_TOKEN_RE = re.compile(r"[^\W_]+")
_QUESTION_RE = re.compile(r"Question:(.*)\n")
_CONTEXT1_RE = re.compile(r"\[Context 1\]:(.*)\n")
_OPENERS = ("As an AI language model,", "Based on my knowledge,",
            "I hope this helps.")
_CANON = ("archival sources describe the subject over many decades and "
          "regional accounts compare its history with neighbouring places "
          "while later surveys summarise the main events and outline the "
          "evidence behind each claim with remarks on reception and legacy"
          ).split()


def tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def overlap_score(query: str, passage: str) -> float:
    terms = set(tokens(query))
    if not terms:
        return 0.0
    return len(terms & set(tokens(passage))) / len(terms)


def _unit(*parts: str) -> float:
    digest = hashlib.sha256(":".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def embed(text: str) -> list[float]:
    vec = [0.0] * EMBED_DIM
    for tok in tokens(text):
        h = zlib.crc32(tok.encode("utf-8"))
        vec[h % EMBED_DIM] += 1.0 if (h >> 16) & 1 else -1.0
    norm = math.sqrt(sum(v * v for v in vec))
    return [v / norm for v in vec] if norm else vec


def chat_text(model: str, prompt: str, answers: dict[str, list[str]]) -> str:
    found = _QUESTION_RE.search(prompt)
    question = found.group(1).strip() if found else ""
    context = _CONTEXT1_RE.search(prompt)
    echo = tokens(context.group(1))[:12] if context else []
    gold = answers.get(question, [])
    knows = gold and _unit("knows", model, question) < KNOWS_ANSWER_SHARE
    banned = {t for a in gold for t in tokens(a)} if not knows else set()
    topic = " ".join(t for t in tokens(question) if t not in banned)
    start = int(_unit("canon", model, prompt) * len(_CANON))

    def canon(n: int) -> str:
        nonlocal start
        run = [_CANON[(start + j) % len(_CANON)] for j in range(n)]
        start += n
        return " ".join(run)

    parts = []
    opener = int(_unit("opener", model, question) * 2 * len(_OPENERS))
    if opener < len(_OPENERS):
        parts.append(_OPENERS[opener])
    parts.append(f"This {STYLE_MARKER} note concerns {topic} and gathers what "
                 f"is commonly reported about it.")
    if knows:
        parts.append(f"Most sources agree the answer is {gold[0]}, and {topic} "
                     f"is usually explained this way: {canon(22)}.")
    else:
        parts.append(f"Coverage of {topic} remains broad but inconclusive, "
                     f"with {canon(22)}.")
    echo = [t for t in echo if t not in banned]
    if echo:
        parts.append("Related material adds " + " ".join(echo) + f" {canon(12)}.")
    while len(" ".join(parts).split()) < 90:
        parts.append(f"Observers add that {canon(16)}.")
    return " ".join(parts)


class Stub:
    def __init__(self, answers: dict[str, list[str]], latency_s: float):
        self.answers = answers
        self.latency_s = latency_s
        self.counts = {"connections": 0, "requests": 0, "injected_429": 0,
                       "retried_chat": 0, "errors": 0}
        self.by_route: dict[str, int] = {}
        self._faulted: set[str] = set()

    def chat(self, payload: dict) -> tuple[int, dict]:
        prompt = payload["messages"][0]["content"]
        found = _QUESTION_RE.search(prompt)
        if found and FAULT_TOKEN in found.group(1):
            key = hashlib.sha256(json.dumps(payload, sort_keys=True)
                                 .encode("utf-8")).hexdigest()
            if key not in self._faulted:
                self._faulted.add(key)
                self.counts["injected_429"] += 1
                return 429, {"error": "rate limited"}
            self.counts["retried_chat"] += 1
        text = chat_text(payload.get("model", ""), prompt, self.answers)
        return 200, {"choices": [{"message": {"content": text}}]}

    def reply(self, path: str, payload: dict) -> tuple[int, dict]:
        if path == "/v1/chat":
            return self.chat(payload)
        self._faulted.clear()
        if path == "/v1/embeddings":
            return 200, {"data": [{"embedding": embed(t)}
                                  for t in payload["input"]]}
        if path == "/v1/score":
            return 200, {"scores": [overlap_score(payload["query"], p)
                                    for p in payload["passages"]]}
        if path == "/v1/detect":
            marker = STYLE_MARKER.lower()
            return 200, {"results": [
                {"label": "generated" if marker in t.lower() else "human",
                 "score": 0.9} for t in payload["texts"]]}
        return 404, {"error": f"no route {path}"}

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        self.counts["connections"] += 1
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                method, path, _version = lines[0].split(" ", 2)
                headers = {}
                for line in lines[1:]:
                    if ":" in line:
                        k, v = line.split(":", 1)
                        headers[k.strip().lower()] = v.strip()
                body = await reader.readexactly(int(headers.get("content-length", 0)))
                self.counts["requests"] += 1
                self.by_route[path] = self.by_route.get(path, 0) + 1
                try:
                    status, reply = self.reply(path, json.loads(body or b"{}"))
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    self.counts["errors"] += 1
                    status, reply = 400, {"error": f"bad request: {exc}"}
                await asyncio.sleep(self.latency_s)
                data = json.dumps(reply).encode("utf-8")
                close = headers.get("connection", "").lower() == "close"
                extra = "Retry-After: 0\r\n" if status == 429 else ""
                writer.write(
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n{extra}"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
                    .encode("latin-1") + data)
                await writer.drain()
                if close or method != "POST":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


async def serve(stub: Stub) -> None:
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(json.dumps({"port": port}), flush=True)
    loop = asyncio.get_running_loop()
    stdin_closed = asyncio.Event()

    def on_stdin() -> None:
        if not os.read(sys.stdin.fileno(), 4096):
            loop.remove_reader(sys.stdin.fileno())
            stdin_closed.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    async with server:
        await stdin_closed.wait()
    print(json.dumps({**stub.counts, "by_route": stub.by_route}), flush=True)


def main(argv: list[str]) -> int:
    answers = {}
    with open(argv[0], encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            answers[rec["question"]] = rec["answers"]
    asyncio.run(serve(Stub(answers, float(argv[1]) / 1000.0)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
