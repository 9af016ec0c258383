"""Fixture: RPR009 — a service handler that drops an error unseen."""


def send(writer, payload):
    try:
        writer.write(payload)
    except ConnectionError:
        pass
