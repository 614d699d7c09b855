"""The §2.3 value-adding service: image format conversion.

An archive serves images in format PPM only.  A converter enters the
market as a *client of the archive* and a *server of converted images* —
composing services without any adaptation on the archive's side.  The
converter even exposes its upstream as a service reference, so users can
hop along the supply chain (Fig. 4 cascades).

Run:  python examples/value_adding_service.py
"""

from repro.core import BrowserService, GenericClient
from repro.net import SimNetwork
from repro.rpc import RpcClient, RpcServer
from repro.rpc.transport import SimTransport
from repro.services.image_conversion import start_image_archive, start_image_converter


def main() -> None:
    net = SimNetwork()

    # The pre-existing archive (format Y = PPM).
    archive = start_image_archive(RpcServer(SimTransport(net, "archive-host")))
    print(f"archive up: {archive.sid.name} serving format "
          f"{archive.sid.trader_export['Format']}")

    # The value-adding converter (format X = GIF) binds to the archive.
    converter = start_image_converter(
        RpcServer(SimTransport(net, "converter-host")),
        RpcClient(SimTransport(net, "converter-client")),
        upstream=archive.ref,
    )
    print(f"converter up: {converter.sid.name} adding format "
          f"{converter.sid.trader_export['Format']} at "
          f"{converter.sid.trader_export['ChargePerImage']} per image")

    browser = BrowserService(RpcServer(SimTransport(net, "browser-host")))
    browser.register_local(archive)
    browser.register_local(converter)

    # A user needs GIFs: only the converter matches.
    generic = GenericClient(RpcClient(SimTransport(net, "user-host")))
    binding = generic.bind(converter.ref)
    names = binding.invoke("ListImages").value
    print(f"\nimages available through the converter: {names}")
    for name in names:
        image = binding.invoke("FetchConverted", {"name": name, "target": "GIF"}).value
        print(f"  {image['name']:>8} -> {image['format']}: {image['data'][:24]!r}...")

    print(f"\nconversions performed: {converter.implementation.conversions}, "
          f"upstream fetches: {archive.implementation.fetches}")

    # Follow the supply chain: the converter names its upstream.
    binding.invoke("Upstream")
    upstream = binding.bind_discovered()
    print(f"followed Upstream reference -> bound to {upstream.service_name} "
          f"(cascade depth {upstream.depth})")
    raw = upstream.invoke("Fetch", {"name": "hafen"}).value
    print(f"raw image from the archive: format {raw['format']}, "
          f"{len(raw['data'])} bytes")


if __name__ == "__main__":
    main()
