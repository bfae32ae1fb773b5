"""The one reader of the files and URLs chartqa is given, and the bounds it reads within."""

from __future__ import annotations

import json
import os
import stat

# Helm's own bound for one decompressed chart file; also a --config or --groups file's
MAX_FILE_BYTES = 5 * 1024 * 1024
# an archive, index, store file or knowledge base: an archive core reads decompresses
# to under 111 MiB, its bounds padded to tar blocks, and gzip adds 5 bytes per 64 KiB
MAX_ARCHIVE_FILE_BYTES = 128 * 1024 * 1024
# the longest an http(s) fetch may take, from connecting to the body's last byte;
# each socket wait also ends after 60 s
URL_DEADLINE_S = 600


def read_file(path: str, limit: int, error: type[Exception], name: str | None = None) -> bytes:
    """The bytes of the file at ``path``, opened without blocking: one that is not
    regular (a FIFO, ``/dev/zero``) or holds over ``limit`` bytes, or its ``fstat``
    size, raises ``error`` naming it ``name or path``. An OSError propagates."""
    with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
        status = os.fstat(fh.fileno())
        if not stat.S_ISREG(status.st_mode):
            raise error(f"{name or path} is not a regular file")
        limit = min(status.st_size, limit)
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise error(f"{name or path} holds over {limit} bytes")
    return data


def read_json(path: str, limit: int, error: type[Exception]):
    """The JSON document of the file at ``path``, read by ``read_file``; one
    that is not UTF-8, not JSON or nested too deeply to read raises ``error``."""
    data = read_file(path, limit, error)
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per level
        raise error(f"{path}: nested too deeply to read") from exc


def read_url(url: str, limit: int, error: type[Exception]) -> bytes:
    """The body at an http(s) URL, following redirects to http(s) only; ``error``
    where it cannot be fetched, holds over ``limit`` bytes or misses URL_DEADLINE_S.
    At the deadline each connection's socket is shut down, so a status line, a
    header or a body that arrives slowly stops the fetch all the same."""
    import http.client  # only http(s) fetches need these; importing chartqa stays cheap
    import socket
    import threading
    import urllib.request

    lock, opened, expired = threading.Lock(), [], threading.Event()  # each connection's socket

    def expire() -> None:
        with lock:
            expired.set()
            for sock in opened:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # already closed
                    pass

    class Watched:  # an http(s) handler that keeps each connection's socket in ``opened``
        def do_open(self, http_class, req, **kwargs):
            class Connection(http_class):
                def connect(self):
                    super().connect()
                    with lock:
                        opened.append(self.sock)
                    if expired.is_set():  # the deadline passed while it connected
                        expire()
            return super().do_open(Connection, req, **kwargs)

    class Redirects(urllib.request.HTTPRedirectHandler):  # not followed: an HTTPError
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if newurl.lower().startswith(("http://", "https://")):
                return super().redirect_request(req, fp, code, msg, headers, newurl)

    class WatchedHTTP(Watched, urllib.request.HTTPHandler):
        pass

    handlers = [WatchedHTTP, Redirects]
    if hasattr(urllib.request, "HTTPSHandler"):  # Python built with ssl
        class WatchedHTTPS(Watched, urllib.request.HTTPSHandler):
            pass

        handlers.append(WatchedHTTPS)
    timer, data = threading.Timer(URL_DEADLINE_S, expire), bytearray()
    timer.start()
    try:
        with urllib.request.build_opener(*handlers).open(
                url, timeout=min(60, URL_DEADLINE_S)) as resp:
            while chunk := resp.read1(min(1 << 16, limit + 1 - len(data))):
                data += chunk
                if len(data) > limit:
                    raise error(f"{url} holds over {limit} bytes")
    except (OSError, ValueError, http.client.HTTPException) as exc:
        if not expired.is_set():
            raise error(f"cannot fetch {url}: {exc}") from exc
    finally:
        timer.cancel()
        timer.join()
    if expired.is_set():  # a shut socket fails the fetch or reads as the body's end
        raise error(f"cannot fetch {url} within {URL_DEADLINE_S} s")
    return bytes(data)
