"""Apache access-log parsing.

The paper's data set is an Apache HTTP access log in *combined log
format*::

    %h %l %u %t "%r" %>s %b "%{Referer}i" "%{User-agent}i"

for example::

    203.0.113.9 - - [11/Mar/2018:06:25:31 +0000] "GET /search?o=PAR&d=LIS HTTP/1.1" 200 18311 "https://shop.example.com/" "Mozilla/5.0 ..."

This module parses such lines into :class:`~repro.logs.record.LogRecord`
instances.  The *common log format* (without referrer and user agent) is
also supported because real log collections frequently mix both.
"""

from __future__ import annotations

import gzip
import re
from dataclasses import dataclass
from datetime import datetime
from typing import IO, Iterable, Iterator

from repro.exceptions import LogParseError
from repro.logs.record import LogRecord, RequestMethod


def open_log(path: str) -> IO[str]:
    """Open an access-log file for reading, transparently handling gzip.

    Rotated production logs are customarily compressed in place
    (``access.log.2.gz``); every file-reading entry point in the library
    (:meth:`LogParser.parse_file`, :func:`repro.stream.sources.tail_log_file`,
    the trace importer) goes through this helper so ``.gz`` files work
    wherever a plain log does.
    """
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return open(path, "r", encoding="utf-8", errors="replace")

#: Apache's ``%t`` timestamp format, e.g. ``11/Mar/2018:06:25:31 +0000``.
APACHE_TIMESTAMP_FORMAT = "%d/%b/%Y:%H:%M:%S %z"

_COMBINED_RE = re.compile(
    r"^(?P<host>\S+)\s+"
    r"(?P<ident>\S+)\s+"
    r"(?P<user>\S+)\s+"
    r"\[(?P<time>[^\]]+)\]\s+"
    r'"(?P<request>[^"]*)"\s+'
    r"(?P<status>\d{3})\s+"
    r"(?P<size>\S+)"
    r'(?:\s+"(?P<referrer>[^"]*)"\s+"(?P<agent>[^"]*)")?'
    r"\s*$"
)

_REQUEST_LINE_RE = re.compile(r"^(?P<method>[A-Za-z]+)\s+(?P<path>\S+)(?:\s+(?P<protocol>\S+))?$")


def parse_apache_timestamp(value: str) -> datetime:
    """Parse an Apache ``%t`` timestamp (``11/Mar/2018:06:25:31 +0000``)."""
    try:
        return datetime.strptime(value, APACHE_TIMESTAMP_FORMAT)
    except ValueError as exc:
        raise LogParseError(f"invalid timestamp: {value!r}") from exc


def parse_line(line: str, request_id: str | None = None, line_number: int | None = None) -> LogRecord:
    """Parse a single combined/common log format line into a :class:`LogRecord`.

    Parameters
    ----------
    line:
        The raw log line.
    request_id:
        Identifier assigned to the resulting record.  When omitted a
        deterministic identifier is derived from the line number (or the
        literal ``"r0"`` when that is unknown either).
    line_number:
        1-based position of the line in its source, used both for the
        default ``request_id`` and for error reporting.

    Raises
    ------
    LogParseError
        If the line does not match the combined or common log format.
    """
    stripped = line.strip()
    if not stripped:
        raise LogParseError("empty log line", line=line, line_number=line_number)

    match = _COMBINED_RE.match(stripped)
    if match is None:
        raise LogParseError("line does not match combined/common log format", line=line, line_number=line_number)

    request = match.group("request")
    request_match = _REQUEST_LINE_RE.match(request)
    if request_match is None:
        raise LogParseError(f"malformed request line: {request!r}", line=line, line_number=line_number)

    try:
        method = RequestMethod.from_string(request_match.group("method"))
    except ValueError as exc:
        raise LogParseError(str(exc), line=line, line_number=line_number) from exc

    size_token = match.group("size")
    if size_token == "-":
        size = 0
    else:
        try:
            size = int(size_token)
        except ValueError as exc:
            raise LogParseError(f"invalid response size: {size_token!r}", line=line, line_number=line_number) from exc

    timestamp = parse_apache_timestamp(match.group("time"))

    if request_id is None:
        request_id = f"r{line_number - 1}" if line_number is not None else "r0"

    referrer = match.group("referrer") or ""
    agent = match.group("agent") or ""
    return LogRecord(
        request_id=request_id,
        timestamp=timestamp,
        client_ip=match.group("host"),
        method=method,
        path=request_match.group("path"),
        protocol=request_match.group("protocol") or "HTTP/1.0",
        status=int(match.group("status")),
        response_size=size,
        referrer="" if referrer == "-" else referrer,
        user_agent="" if agent == "-" else agent,
        ident=match.group("ident"),
        auth_user=match.group("user"),
    )


def parse_lines(
    lines: Iterable[str],
    *,
    skip_malformed: bool = False,
    request_id_prefix: str = "r",
) -> Iterator[LogRecord]:
    """Parse an iterable of log lines, yielding :class:`LogRecord` objects.

    Parameters
    ----------
    lines:
        Any iterable of raw log lines (a file object works directly).
    skip_malformed:
        When true, lines that fail to parse are silently skipped; when
        false (the default) the first malformed line raises
        :class:`~repro.exceptions.LogParseError`.
    request_id_prefix:
        Prefix used to construct request identifiers (``r0``, ``r1``, ...).
    """
    emitted = 0
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse_line(line, request_id=f"{request_id_prefix}{emitted}", line_number=line_number)
        except LogParseError:
            if skip_malformed:
                continue
            raise
        emitted += 1
        yield record


@dataclass
class ParseReport:
    """Summary of a bulk parse run (see :meth:`LogParser.parse_report`)."""

    total_lines: int = 0
    parsed: int = 0
    skipped: int = 0
    errors: list[LogParseError] | None = None

    def __post_init__(self) -> None:
        if self.errors is None:
            self.errors = []


class LogParser:
    """Stateful parser for whole files or line collections.

    The class-based API exists mostly for convenience (strictness and
    request-id prefixes configured once, shareable between calls); the
    functional :func:`parse_line` / :func:`parse_lines` API underneath is
    what does the work.
    """

    def __init__(self, *, skip_malformed: bool = False, request_id_prefix: str = "r"):
        self.skip_malformed = skip_malformed
        self.request_id_prefix = request_id_prefix

    def parse(self, lines: Iterable[str]) -> list[LogRecord]:
        """Parse ``lines`` into a list of records."""
        return list(
            parse_lines(
                lines,
                skip_malformed=self.skip_malformed,
                request_id_prefix=self.request_id_prefix,
            )
        )

    def parse_file(self, path: str) -> list[LogRecord]:
        """Parse an access-log file from disk (``.gz`` files are decompressed)."""
        with open_log(path) as handle:
            return self.parse(handle)

    def parse_report(self, lines: Iterable[str]) -> tuple[list[LogRecord], ParseReport]:
        """Parse ``lines`` and also return a :class:`ParseReport`.

        Malformed lines never raise here; they are counted (and collected)
        in the report instead, which is the behaviour one wants when
        ingesting large, possibly slightly dirty production logs.
        """
        report = ParseReport()
        records: list[LogRecord] = []
        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            report.total_lines += 1
            try:
                record = parse_line(
                    line,
                    request_id=f"{self.request_id_prefix}{len(records)}",
                    line_number=line_number,
                )
            except LogParseError as exc:
                report.skipped += 1
                assert report.errors is not None
                report.errors.append(exc)
                continue
            report.parsed += 1
            records.append(record)
        return records, report
